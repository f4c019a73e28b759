"""Frames a link direction streams instead of scheduling
(Link.open_stream, Link.settle).

A streamed frame must occupy the wire, move the counters and reach the
far side exactly as a transmitted one would — and stop doing so the
moment the link is cut under it, or the far port is disabled.
"""

import pytest

from repro.net import AppData, EthernetFrame, Link, mac
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_LDP
from repro.net.link import BeaconLog
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.topology.builder import LinkParams

from tests.net.test_link import Sink


def _frame(ethertype, length):
    return EthernetFrame(mac("01:80:c2:00:00:0e"), mac("00:00:00:00:00:01"),
                         ethertype, AppData(length))


def _counters(port):
    c = port.counters
    return (c.tx_frames, c.tx_bytes, c.rx_frames, c.rx_bytes, c.drops)


class _Receiver:
    """Records what a stream tells its receiver."""

    def __init__(self):
        self.heard = []
        self.unheard = 0

    def hear(self, heard_at, heard_before, frame):
        self.heard.append((heard_at, heard_before))

    def unhear(self):
        self.unheard += 1


def _keepalives_then_data(streamed: bool):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.port(0), b.port(0), carrier_detect=False)
    keepalive = _frame(ETHERTYPE_LDP, 30)
    log, receiver = BeaconLog(sim), _Receiver()

    def send_keepalive():
        if not streamed:
            a.port(0).send(keepalive)
            return
        log.beacon(keepalive)
        if log.count == 1:
            assert link.open_stream(a.port(0), log, receiver, 50e-6)

    for at in (0.001, 0.011, 0.021):
        sim.schedule_at(at, send_keepalive)
    sim.schedule_at(0.021 + 0.3e-6, a.port(0).send,
                    _frame(ETHERTYPE_IPV4, 1000))
    pushes = sim.queue_stats()["pushes"]
    sim.run(until=0.0210005)
    mid = (_counters(a.port(0)), _counters(b.port(0)))
    sim.run(until=0.03)
    data = [(t, f.wire_length()) for t, f in b.received
            if f.ethertype == ETHERTYPE_IPV4]
    assert receiver.unheard == 0
    if streamed:
        # Nothing scheduled for the keepalives but the data frame's end
        # of serialization, and its delivery.
        assert sim.queue_stats()["pushes"] - pushes == 2
        assert len(receiver.heard) == 1  # written in once, by the send
    return data, mid, (_counters(a.port(0)), _counters(b.port(0)))


def test_data_frame_behind_accounted_keepalive_leaves_on_time():
    real = _keepalives_then_data(streamed=False)
    streamed = _keepalives_then_data(streamed=True)
    # Exact float equality: the data frame was queued behind the third
    # keepalive and started at the instant its serialization ended.
    assert streamed == real
    (arrival, _), = streamed[0]
    assert arrival > 0.021 + 8e-6  # did wait for the keepalive


def _data_behind_two_keepalives(streamed: tuple[bool, bool]) -> list:
    """One beacon of two ports, each port's keepalive streamed or sent
    as a frame, then a data frame on each."""
    sim = Simulator()
    hub = Sink(sim, "hub", ports=2)
    arrivals = []

    class Recorder(Sink):
        def receive(self, frame, in_port):
            arrivals.append((sim.now, self.name, frame.wire_length()))

    links = [Link(sim, hub.port(i), Recorder(sim, name).port(0),
                  carrier_detect=False) for i, name in enumerate("ab")]
    keepalive = _frame(ETHERTYPE_LDP, 30)
    log, receiver = BeaconLog(sim), _Receiver()

    def beacon():
        log.beacon(keepalive)
        for i, link in enumerate(links):  # in port order, as LDP does
            if streamed[i]:
                assert link.open_stream(hub.port(i), log, receiver, 50e-6)
            else:
                hub.port(i).send(keepalive)
            log.mark(i)

    sim.schedule_at(0.001, beacon)
    for i in (1, 0):  # handed over in reverse port order
        sim.schedule_at(0.001 + 0.3e-6, hub.port(i).send,
                        _frame(ETHERTYPE_IPV4, 1000))
    sim.run(until=0.002)
    return [(at, name) for at, name, size in arrivals if size > 100]


@pytest.mark.parametrize("streamed", [(True, True), (False, True),
                                      (True, False)])
def test_streams_of_one_beacon_end_serializing_in_port_order(streamed):
    """Two ports' keepalives of one beacon stop serializing at the same
    instant, so the data frames waiting behind them start at one
    instant too: in port order, as behind real keepalives, whichever
    ports stream, and without two streams sharing a place in the event
    order."""
    real = _data_behind_two_keepalives(streamed=(False, False))
    assert _data_behind_two_keepalives(streamed) == real
    assert [name for _, name in real] == ["a", "b"]


def test_accounted_frame_not_idle_or_unhealthy_is_refused():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.port(0), b.port(0), carrier_detect=False)
    keepalive = _frame(ETHERTYPE_LDP, 30)
    logs = {a.port(0): BeaconLog(sim), b.port(0): BeaconLog(sim)}
    receiver = _Receiver()

    def opened(port) -> bool:
        """Beacon from ``port``'s side and ask for a stream; a refusal
        books nothing."""
        logs[port].beacon(keepalive)
        before = (_counters(link.a), _counters(link.b))
        opened = link.open_stream(port, logs[port], receiver, 50e-6)
        if not opened:
            assert (_counters(link.a), _counters(link.b)) == before
        return opened

    a.port(0).send(_frame(ETHERTYPE_IPV4, 1000))   # wire busy
    assert not opened(a.port(0))
    assert opened(b.port(0))                       # other direction idle
    assert not link.open_stream(b.port(0), logs[b.port(0)], receiver,
                                50e-6)             # streams already
    sim.run(until=1.0)
    assert _counters(a.port(0))[0] == 1            # the refusal booked nothing
    assert _counters(b.port(0))[0] == 1            # the streamed one
    a.port(0).enabled = False                      # closes b's stream
    assert logs[b.port(0)].live == 0
    logs[b.port(0)].beacon(keepalive)              # ... which takes no more
    assert _counters(b.port(0))[0] == 1
    a.port(0).enabled = True
    b.port(0).enabled = False
    assert not opened(a.port(0))
    b.port(0).enabled = True
    link.fail_direction(a.port(0))                 # the sender's direction
    assert not opened(a.port(0))
    link.recover()
    link.fail_direction(b.port(0))                 # the reverse direction
    assert not opened(a.port(0))
    link.recover()
    link.fail()                                    # both
    assert not opened(a.port(0))
    link.recover()
    assert opened(a.port(0))
    lossy = Link(sim, Sink(sim, "c").port(0), Sink(sim, "d").port(0),
                 loss_rate=0.01)
    lossy_log = BeaconLog(sim)
    lossy_log.beacon(keepalive)
    assert not lossy.open_stream(lossy.a, lossy_log, receiver, 50e-6)
    assert receiver.unheard == 0


def _keepalive_across_a_port_toggle(streamed: bool, end: int,
                                    offset: float, reenabled: bool):
    """Two keepalives 10 ms apart, streamed or sent; ``offset`` after
    the first, the port at ``end`` (0 sends, 1 receives) is disabled,
    and with ``reenabled`` enabled again 0.1 us later."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.port(0), b.port(0), carrier_detect=False)
    keepalive = _frame(ETHERTYPE_LDP, 30)
    log, receiver = BeaconLog(sim), _Receiver()

    def beacon():
        if streamed:
            log.beacon(keepalive)
            if log.live or link.open_stream(a.port(0), log, receiver,
                                            50e-6):
                return
        a.port(0).send(keepalive)

    port = (a, b)[end].port(0)
    for at in (0.001, 0.011):
        sim.schedule_at(at, beacon)
    sim.schedule_at(0.001 + offset, setattr, port, "enabled", False)
    if reenabled:
        sim.schedule_at(0.001 + offset + 0.1e-6, setattr, port, "enabled",
                        True)
    sim.run(until=0.02)
    counters = (_counters(a.port(0)), _counters(b.port(0)))  # settles
    # A streamed keepalive counts as delivered while the receiver keeps
    # what it was told; one handed back as a frame reaches ``b`` itself.
    delivered = len(b.received) + len(receiver.heard) - receiver.unheard
    return (*counters, delivered, {at for at, _ in b.received})


@pytest.mark.parametrize("reenabled", [False, True])
@pytest.mark.parametrize("offset", [0.3e-6, 1.0e-6, 5e-6])
@pytest.mark.parametrize("end", [0, 1])
def test_port_disabled_under_a_streamed_keepalive(end, offset, reenabled):
    """Disabling a port while a keepalive is serializing (0.3 us) or on
    the wire (1 us) — or after it arrived (5 us) — does to a streamed
    one what it does to a frame: at the far port the frame is dropped on
    arrival, or delivered if the port is enabled again by then; at the
    sending port it goes on."""
    real = _keepalive_across_a_port_toggle(False, end, offset, reenabled)
    got = _keepalive_across_a_port_toggle(True, end, offset, reenabled)
    assert got[:3] == real[:3]
    assert got[3] <= real[3]  # handed back as a frame: on time
    if end == 1 and offset < 1.672e-6:  # the first one is on its way
        assert real[2] == (2 if reenabled else 0)


def test_link_failed_before_delivery_voids_accounted_ldm():
    sim = Simulator(seed=9)
    fabric = build_portland_fabric(
        sim, k=4, link_params=LinkParams(carrier_detect=False))
    fabric.start()
    fabric.run_until_located()
    sim.run(until=sim.now + 0.03)
    agg, core = fabric.agents["agg-p0-s0"], fabric.agents["core-0"]
    link = fabric.link_between("agg-p0-s0", "core-0")
    agg_port = link.a if link.a.node is agg.switch else link.b
    core_port = link.other_end(agg_port)
    info = core.ldp.neighbors[core_port.index]
    pushes = sim.queue_stats()["pushes"]
    before = (_counters(core_port), info.last_heard)

    agg.ldp._send_ldm()                      # every LDM streamed
    assert sim.queue_stats()["pushes"] == pushes
    assert info.last_heard > sim.now         # runs ahead while in flight
    sim.run(until=sim.now + 1e-6)            # on the wire, not delivered
    assert _counters(core_port) == before[0]
    link.fail()
    sim.run(until=sim.now + 100e-6)
    assert (_counters(core_port), info.last_heard) == before

    # An untouched link of the same beacon did deliver.
    other = fabric.link_between("agg-p0-s0", "core-1")
    far = other.b if other.a.node is agg.switch else other.a
    assert fabric.agents["core-1"].ldp.neighbors[far.index].last_heard \
        > before[1]


def test_one_beacon_holds_places_in_port_order_across_real_and_streamed():
    """A switch whose second port sends its LDMs as frames and whose
    other ports stream them: the ends of serialization of one beacon
    hold places in port order, as they would with every LDM a frame."""
    sim = Simulator(seed=9)
    fabric = build_portland_fabric(
        sim, k=4, link_params=LinkParams(carrier_detect=False))
    fabric.start()
    fabric.run_until_located()
    sim.run(until=sim.now + 0.03)
    agg = fabric.agents["agg-p0-s0"]
    ports = agg.ldp.data_ports()
    real = ports[1]
    real.link.fail_direction(real.peer)      # its LDMs can no longer stream
    sim.run(until=sim.now + 0.02)            # a beacon regroups the ports

    agg.ldp._send_ldm()
    streamed = [p for p in ports if p.link.streaming(p)]
    assert real not in streamed and len(streamed) == len(ports) - 1
    for port in ports:
        port.counters                        # writes in the streams' places
    assert len({port._tx.busy_until for port in ports}) == 1
    places = [port._tx.done_seq for port in ports]
    assert places == sorted(places) and len(set(places)) == len(places)
