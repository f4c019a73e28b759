"""Frames a link accounts instead of scheduling (Link.account).

The accounted frame must occupy the wire, move the counters and reach
the far side exactly as a transmitted one would — and stop doing so
the moment the link is cut under it.
"""

from repro.net import AppData, EthernetFrame, Link, mac
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_LDP
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


def _keepalive_then_data(accounted: bool):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.port(0), b.port(0), carrier_detect=False)
    keepalive = _frame(ETHERTYPE_LDP, 30)
    voided = []

    def send_keepalive():
        if accounted:
            assert link.account(a.port(0), keepalive,
                                lambda f, port, at: voided.append)
        else:
            a.port(0).send(keepalive)

    sim.schedule_at(0.001, send_keepalive)
    sim.schedule_at(0.001 + 0.3e-6, a.port(0).send,
                    _frame(ETHERTYPE_IPV4, 1000))
    sim.run(until=0.0010005)
    mid = (_counters(a.port(0)), _counters(b.port(0)))
    sim.run(until=0.002)
    data = [(t, f.wire_length()) for t, f in b.received
            if f.ethertype == ETHERTYPE_IPV4]
    assert not voided
    return data, mid, (_counters(a.port(0)), _counters(b.port(0)))


def test_data_frame_behind_accounted_keepalive_leaves_on_time():
    real = _keepalive_then_data(accounted=False)
    accounted = _keepalive_then_data(accounted=True)
    # Exact float equality: the data frame was queued behind the
    # keepalive and started at the instant its serialization ended.
    assert accounted == real
    (arrival, _), = accounted[0]
    assert arrival > 0.001 + 8e-6  # did wait for the keepalive


def test_accounted_frame_not_idle_or_unhealthy_is_refused():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.port(0), b.port(0), carrier_detect=False)
    frame = _frame(ETHERTYPE_LDP, 30)

    def admit(f, port, at):
        return lambda: None

    a.port(0).send(_frame(ETHERTYPE_IPV4, 1000))   # wire busy
    assert not link.account(a.port(0), frame, admit)
    assert link.account(b.port(0), frame, admit)   # other direction idle
    assert not link.account(b.port(0), frame, admit)   # busy with the first
    sim.run(until=1.0)
    assert not link.account(a.port(0), frame, lambda f, port, at: None)
    assert _counters(a.port(0))[0] == 1            # the refusal booked nothing
    b.port(0).enabled = False
    assert not link.account(a.port(0), frame, admit)
    b.port(0).enabled = True
    link.fail_direction(a.port(0))
    assert not link.account(a.port(0), frame, admit)
    link.recover()
    assert link.account(a.port(0), frame, admit)
    lossy = Link(sim, Sink(sim, "c").port(0), Sink(sim, "d").port(0),
                 loss_rate=0.01)
    assert not lossy.account(lossy.a, frame, admit)


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

    agg.ldp._send_ldm()                      # every LDM accounted
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
