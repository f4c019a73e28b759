"""Unit tests for the switch data path's action interpreter and its
agent hook (a PortlandSwitch with nothing but a forwarding table)."""

from repro.net import AppData, EthernetFrame, Link, mac
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.node import Node
from repro.portland.switch import PortlandSwitch
from repro.sim import Simulator
from repro.switching.flow_table import (
    Match,
    Output,
    OutputMany,
    SelectByHash,
    SetEthDst,
    SetEthSrc,
    ToAgent,
)


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name, 1)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append(frame)


class RecordingAgent:
    def __init__(self):
        self.punted = []
        self.downs = []
        self.ups = []

    def on_packet_in(self, frame, in_port, reason):
        self.punted.append((frame, in_port.index, reason))

    def on_port_down(self, port):
        self.downs.append(port.index)

    def on_port_up(self, port):
        self.ups.append(port.index)


def build(sim, ports=4):
    switch = PortlandSwitch(sim, "sw", ports, agent_delay_s=1e-6)
    sinks = []
    for i in range(ports):
        sink = Sink(sim, f"s{i}")
        Link(sim, switch.port(i), sink.port(0), carrier_detect=False)
        sinks.append(sink)
    return switch, sinks


def frame(dst="00:00:00:00:00:aa"):
    return EthernetFrame(mac(dst), mac("00:00:00:00:00:01"),
                         ETHERTYPE_IPV4, AppData(10))


def test_output_action_forwards():
    sim = Simulator()
    switch, sinks = build(sim)
    switch.table.install(Match(), (Output(2),))
    switch.receive(frame(), switch.port(0))
    sim.run()
    assert len(sinks[2].received) == 1
    assert sinks[0].received == []


def test_miss_drops_by_default():
    sim = Simulator()
    switch, sinks = build(sim)
    switch.receive(frame(), switch.port(0))
    sim.run()
    assert switch.miss_drops == 1
    assert all(not s.received for s in sinks)


def test_rewrite_then_output():
    sim = Simulator()
    switch, sinks = build(sim)
    new_dst = mac("00:00:00:00:00:99")
    new_src = mac("00:00:00:00:00:77")
    switch.table.install(Match(), (SetEthDst(new_dst), SetEthSrc(new_src),
                                   Output(1)))
    original = frame()
    switch.receive(original, switch.port(0))
    sim.run()
    out = sinks[1].received[0]
    assert out.dst == new_dst and out.src == new_src
    # The original frame object is untouched (copy-on-write).
    assert original.dst == mac("00:00:00:00:00:aa")


def test_output_many_excludes_ingress():
    sim = Simulator()
    switch, sinks = build(sim)
    switch.table.install(Match(), (OutputMany((0, 1, 2, 3)),))
    switch.receive(frame(), switch.port(1))
    sim.run()
    assert [len(s.received) for s in sinks] == [1, 0, 1, 1]


def test_select_by_hash_is_deterministic_and_ignores_liveness():
    sim = Simulator()
    switch, sinks = build(sim)
    switch.table.install(Match(), (SelectByHash((1, 2, 3)),))
    f = frame()
    switch.receive(f, switch.port(0))
    switch.receive(f.copy(), switch.port(0))
    sim.run()
    deliveries = [len(s.received) for s in sinks]
    assert sum(deliveries) == 2
    assert deliveries.count(2) == 1  # same flow -> same port

    # A failed link does NOT change the selection (silent blackhole).
    chosen = deliveries.index(2)
    switch.port(chosen).link.fail()
    switch.receive(f.copy(), switch.port(0))
    sim.run()
    assert [len(s.received) for s in sinks] == deliveries


def test_to_agent_action_with_reason():
    sim = Simulator()
    switch, _ = build(sim)
    agent = RecordingAgent()
    switch.attach_agent(agent)
    switch.table.install(Match(), (ToAgent("why"),))
    switch.receive(frame(), switch.port(0))
    sim.run()
    assert agent.punted[0][2] == "why"


def test_agent_delay_applies():
    sim = Simulator()
    switch = PortlandSwitch(sim, "sw", 2, agent_delay_s=0.005)
    agent = RecordingAgent()
    switch.attach_agent(agent)
    switch.table.install(Match(), (ToAgent("slow"),))
    times = []
    agent.on_packet_in = lambda f, p, r: times.append(sim.now)
    switch.receive(frame(), switch.port(0))
    sim.run()
    assert times == [0.005]


def test_carrier_events_reach_agent():
    sim = Simulator()
    switch, sinks = build(sim)
    agent = RecordingAgent()
    switch.attach_agent(agent)
    link = switch.port(2).link
    link.carrier_detect = True
    link.fail()
    sim.run()
    assert 2 in agent.downs
    link.recover()
    sim.run()
    assert 2 in agent.ups
