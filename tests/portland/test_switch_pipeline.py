"""Unit tests for the PortlandSwitch two-stage pipeline."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import AppData, EthernetFrame, Link, mac
from repro.net.ethernet import ETHERTYPE_FABRIC, ETHERTYPE_IPV4, ETHERTYPE_LDP
from repro.net.node import Node
from repro.portland.switch import PortlandSwitch
from repro.sim import Simulator, TraceCollector
from repro.switching.flow_table import (
    Drop,
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


class Recorder:
    def __init__(self):
        self.punts = []

    def on_packet_in(self, frame, in_port, reason):
        self.punts.append((frame, reason))

    def on_port_down(self, port):
        pass

    def on_port_up(self, port):
        pass


def build(sim):
    switch = PortlandSwitch(sim, "psw", 3, agent_delay_s=1e-6)
    agent = Recorder()
    switch.attach_agent(agent)
    sinks = [Sink(sim, f"s{i}") for i in range(3)]
    for i, sink in enumerate(sinks):
        Link(sim, switch.port(i), sink.port(0), carrier_detect=False)
    return switch, agent, sinks


def frame(dst="00:00:00:00:00:aa", src="00:00:00:00:00:01",
          ethertype=ETHERTYPE_IPV4):
    return EthernetFrame(mac(dst), mac(src), ethertype, AppData(10))


def test_rewrite_stage_continues_to_forwarding():
    sim = Simulator()
    switch, _agent, sinks = build(sim)
    pmac = mac("00:07:01:00:00:00")
    switch.rewrite_table.install(
        Match(in_port=0, eth_src=mac("00:00:00:00:00:01")),
        (SetEthSrc(pmac),), 500, "ingress")
    switch.table.install(Match(), (Output(2),), 100, "up")
    switch.receive(frame(), switch.port(0))
    sim.run()
    assert sinks[2].received[0].src == pmac


def test_terminal_rewrite_entry_consumes_frame():
    sim = Simulator()
    switch, agent, sinks = build(sim)
    switch.rewrite_table.install(Match(in_port=0), (ToAgent("new-host"),),
                                 100, "trap")
    switch.table.install(Match(), (Output(2),), 100, "up")
    switch.receive(frame(), switch.port(0))
    sim.run()
    assert agent.punts and agent.punts[0][1] == "new-host"
    assert sinks[2].received == []  # never reached stage 2


def test_ldp_frames_bypass_tables():
    sim = Simulator()
    switch, agent, _sinks = build(sim)
    switch.table.install(Match(), (Output(2),), 100, "up")
    switch.receive(frame(ethertype=ETHERTYPE_LDP), switch.port(0))
    sim.run()
    assert agent.punts[0][1] == "ldp"


def test_control_port_frames_reach_agent():
    sim = Simulator()
    switch, agent, _sinks = build(sim)
    control = switch.attach_control_port()
    fm_side = Sink(sim, "fm")
    Link(sim, control, fm_side.port(0))
    fm_side.port(0).send(frame(ethertype=ETHERTYPE_FABRIC))
    sim.run()
    assert agent.punts[0][1] == "control"


def test_send_control_requires_port():
    sim = Simulator()
    switch, _agent, _sinks = build(sim)
    assert switch.send_control(frame()) is False
    control = switch.attach_control_port()
    fm_side = Sink(sim, "fm")
    Link(sim, control, fm_side.port(0))
    assert switch.send_control(frame()) is True
    sim.run()
    assert len(fm_side.received) == 1


def test_inject_skips_punt_entries():
    sim = Simulator()
    switch, agent, sinks = build(sim)
    switch.table.install(Match(), (ToAgent("loop"),), 500, "punt")
    switch.table.install(Match(), (Output(1),), 100, "out")
    switch.inject(frame())
    sim.run()
    assert agent.punts == []  # punt entry skipped
    assert len(sinks[1].received) == 1


def test_inject_miss_counts_drop():
    sim = Simulator()
    switch, _agent, _sinks = build(sim)
    switch.inject(frame())
    assert switch.miss_drops == 1


def test_rewrite_dst_applies_before_forwarding_lookup():
    sim = Simulator()
    switch, _agent, sinks = build(sim)
    target = mac("00:00:00:00:00:bb")
    switch.rewrite_table.install(Match(in_port=0),
                                 (SetEthDst(target),), 100, "rw")
    # Forwarding matches on the REWRITTEN destination.
    switch.table.install(Match(eth_dst=target), (Output(1),), 200, "hit")
    switch.table.install(Match(), (Output(2),), 100, "default")
    switch.receive(frame(dst="00:00:00:00:00:aa"), switch.port(0))
    sim.run()
    assert len(sinks[1].received) == 1
    assert sinks[2].received == []


# ----------------------------------------------------------------------
# Plan == interpreter (docs/PERF.md, "The hop as a plan"): whatever the
# action list, executing the plan compiled from it — memoised by the
# table, or per frame by a table that is not ``cache_safe`` — does to the
# frame what ``apply_actions`` does, from every ingress the same plan
# serves.

_MACS = st.sampled_from([mac("00:00:00:00:00:b1"), mac("00:00:00:00:00:b2")])
#: Ports 0-2 exist; 5 does not.
_PORTS = st.sampled_from([0, 1, 2, 5])
_ACTIONS = st.lists(
    st.one_of(
        st.builds(Output, _PORTS),
        st.builds(OutputMany, st.lists(_PORTS, max_size=3).map(tuple)),
        st.builds(SelectByHash, st.lists(_PORTS, max_size=3).map(tuple)),
        st.builds(SetEthDst, _MACS),
        st.builds(SetEthSrc, _MACS),
        st.builds(ToAgent, st.just("why")),
        st.builds(Drop, st.just("acl")),
    ),
    max_size=3,
).map(tuple)


def _observed(sim, switch, agent, sinks, drops):
    sim.run()
    entry = next(iter(switch.table))
    return {
        "sent": [(i, f.dst, f.src, id(f.payload))
                 for i, sink in enumerate(sinks) for f in sink.received],
        "punts": [(f.dst, f.src, id(f.payload), reason)
                  for f, reason in agent.punts],
        "policy_drops": [(r.time, r.source, r.detail) for r in drops.records],
        "entry": (entry.packets, entry.bytes),
        "ports": [(p.counters.tx_frames, p.counters.drops)
                  for p in switch.ports],
    }


@settings(max_examples=300, deadline=None)
# A plan that baked the ingress check in when it was compiled.
@example(actions=(Output(0),), ingresses=[0, 1], memoised=True)
# ECMP after a rewrite selects by the rewritten frame's hash, not the
# key's: found by this test in the cache as it was before plans.
@example(actions=(SetEthDst(mac("00:00:00:00:00:b1")), SelectByHash((0, 1))),
         ingresses=[0], memoised=True)
@given(actions=_ACTIONS,
       ingresses=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=4),
       memoised=st.booleans())
def test_plan_execution_equals_the_interpreter(actions, ingresses, memoised):
    probe = frame()
    runs = []
    for interpreted in (False, True):
        sim = Simulator()
        switch = PortlandSwitch(sim, "psw", 3, agent_delay_s=1e-6)
        agent = Recorder()
        switch.attach_agent(agent)
        sinks = [Sink(sim, f"s{i}") for i in range(3)]
        for i, sink in enumerate(sinks):
            Link(sim, switch.port(i), sink.port(0), carrier_detect=False)
        drops = TraceCollector(sim.trace, "verify.policy_drop")
        entry = switch.table.install(Match(), actions, 100, "under-test")
        if not memoised:
            # Never matches (there is no port 7), but the key cannot
            # tell ingresses apart for it: every frame compiles its plan.
            switch.table.install(Match(in_port=7), (), 50, "not-key-only")
            assert not switch.table.cache_safe
        for in_index in ingresses:
            if interpreted:
                entry.touch(probe)
                switch.apply_actions(probe, switch.port(in_index),
                                     entry.actions)
            else:
                switch.receive(probe, switch.port(in_index))
        if not interpreted and memoised:
            # One compile, then the same plan whatever the ingress.
            assert switch.table.installs == 1
            assert switch.table.hits == len(ingresses) - 1
        runs.append(_observed(sim, switch, agent, sinks, drops))
    assert runs[0] == runs[1]
