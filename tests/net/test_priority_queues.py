"""Per-class strict-priority egress queue units (docs/POLICY.md).

The queues live inside ``Link``'s per-direction state: classed
(tclass > 0) frames that arrive while the direction is busy wait in
per-class queues and always transmit ahead of the best-effort FIFO,
highest class first. Classless traffic must never see any of this —
the default path keeps the exact pre-policy structures and counters.
"""

import pytest

from repro.net import AppData, EthernetFrame, Link, mac
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.node import Node
from repro.policy import CLASS_PRIORITY, DSCP_CS0, DSCP_EF, class_of_dscp
from repro.sim import Simulator


class Sink(Node):
    def __init__(self, sim, name, ports=1):
        super().__init__(sim, name, ports)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now, frame))


def frame(length=1000, tclass=0):
    return EthernetFrame(mac("ff:ff:ff:ff:ff:ff"), mac("00:00:00:00:00:01"),
                         ETHERTYPE_IPV4, AppData(length), tclass=tclass)


def wire(sim, a, b, **kwargs):
    kwargs.setdefault("rate_bps", 1e6)
    kwargs.setdefault("delay_s", 0.0)
    return Link(sim, a.port(0), b.port(0), **kwargs)


def order(sink):
    return [f.tclass for _t, f in sink.received]


def test_priority_frame_overtakes_queued_bulk():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b)
    # First bulk frame occupies the wire; two more queue; the priority
    # frame arrives last but transmits as soon as the wire frees.
    for _ in range(3):
        assert a.port(0).send(frame(tclass=0))
    assert a.port(0).send(frame(tclass=CLASS_PRIORITY))
    sim.run()
    assert order(b) == [0, CLASS_PRIORITY, 0, 0]


def test_higher_class_beats_lower_class():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b)
    a.port(0).send(frame(tclass=0))      # transmitting
    a.port(0).send(frame(tclass=1))
    a.port(0).send(frame(tclass=2))      # queued later, higher class
    sim.run()
    assert order(b) == [0, 2, 1]


def test_fifo_within_a_class():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b)
    a.port(0).send(frame(tclass=0))
    sizes = (900, 700, 800)
    for size in sizes:
        a.port(0).send(frame(size, tclass=CLASS_PRIORITY))
    sim.run()
    assert [f.payload.length for _t, f in b.received[1:]] == list(sizes)


def test_priority_queues_off_is_plain_fifo():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b, priority_queues=False)
    for _ in range(2):
        a.port(0).send(frame(tclass=0))
    a.port(0).send(frame(tclass=CLASS_PRIORITY))
    a.port(0).send(frame(tclass=0))
    sim.run()
    assert order(b) == [0, 0, CLASS_PRIORITY, 0]


def test_shared_drop_tail_budget_counts_classed_drops():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, queue_bytes=1100)
    # One transmitting + one queued bulk frame exhausts the budget: both
    # a further bulk frame and a priority frame are tail-dropped (strict
    # priority changes service order, not admission).
    assert a.port(0).send(frame(1000))
    assert a.port(0).send(frame(1000))
    assert not a.port(0).send(frame(1000, tclass=0))
    assert not a.port(0).send(frame(1000, tclass=CLASS_PRIORITY))
    assert a.port(0).counters.drops == 2
    # Only the classed drop is metered per class; class 0 is derived
    # from the port counters (see metrics.utilization.class_drop_totals).
    assert link.class_drops(a.port(0)) == {CLASS_PRIORITY: 1}
    sim.run()
    assert len(b.received) == 2


def test_class_tx_byte_accounting():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b)
    bulk, prio = frame(1000, tclass=0), frame(400, tclass=CLASS_PRIORITY)
    a.port(0).send(bulk)
    a.port(0).send(prio)
    sim.run()
    assert link.class_tx_bytes(a.port(0)) == {
        CLASS_PRIORITY: prio.wire_length()}
    assert a.port(0).counters.tx_bytes == (bulk.wire_length()
                                           + prio.wire_length())
    # The reverse direction carried nothing classed.
    assert link.class_tx_bytes(b.port(0)) == {}


def test_classless_traffic_leaves_class_state_untouched():
    """Bit-identity guard: a fabric that never marks a frame must never
    allocate per-class queues or counters."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b)
    for _ in range(5):
        a.port(0).send(frame(tclass=0))
    sim.run()
    assert len(b.received) == 5
    for port in (a.port(0), b.port(0)):
        assert link.class_tx_bytes(port) == {}
        assert link.class_drops(port) == {}
        assert port._tx.class_queues is None


def test_direction_state_through_the_public_methods():
    """A direction's failure, loads and per-class counters are its own:
    failing a -> b leaves b -> a alone, recover() heals it, and counters
    and registered loads survive both."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, queue_bytes=1500)
    pa, pb = a.port(0), b.port(0)
    prio = frame(400, tclass=CLASS_PRIORITY)
    assert pa.send(frame(1000)) and pa.send(prio)
    assert not pa.send(frame(1200, tclass=CLASS_PRIORITY))  # queue full
    sim.run()
    link.set_fluid_load(pa, 250e3)
    link.set_frame_load(pb, 400e3)
    link.fluid_charge(pa, 2, 3000)

    link.fail_direction(pa)
    assert not link.can_carry(pa) and link.can_carry(pb)
    assert link.capacity_bps(pa) == 0.0 and link.capacity_bps(pb) == 1e6
    assert link.fluid_capacity_bps(pb) == 1e6 - 400e3
    assert not pa.send(frame()) and pb.send(frame())
    sim.run()
    assert len(a.received) == 1 and len(b.received) == 2

    link.recover()
    assert link.can_carry(pa) and link.capacity_bps(pa) == 1e6
    assert link.class_tx_bytes(pa) == {CLASS_PRIORITY: prio.wire_length()}
    assert link.class_drops(pa) == {CLASS_PRIORITY: 1}
    assert link.class_tx_bytes(pb) == {} and link.class_drops(pb) == {}
    assert link.frame_tx_bytes(pa) == pa.counters.tx_bytes - 3000
    assert link.frame_tx_bytes(pb) == pb.counters.tx_bytes
    # The fluid load a -> b still stretches a's frames (4/3 at 25 %).
    plain = frame(1000)
    assert link.serialization_time(plain, pa) == pytest.approx(
        link.serialization_time(plain) * 4 / 3)
    assert link.serialization_time(plain, pb) == link.serialization_time(plain)
    link.set_fluid_load(pa, 0.0)
    assert link.serialization_time(plain, pa) == link.serialization_time(plain)


def test_serialization_is_not_preempted():
    """Strict priority is non-preemptive: a priority frame waits out the
    bulk frame already on the wire."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b, rate_bps=1e6)
    bulk = frame(1000)
    a.port(0).send(bulk)
    a.port(0).send(frame(100, tclass=CLASS_PRIORITY))
    sim.run()
    bulk_done = (bulk.wire_length() + 20) * 8 / 1e6
    assert b.received[0][0] == pytest.approx(bulk_done)
    assert b.received[1][1].tclass == CLASS_PRIORITY
    assert b.received[1][0] > bulk_done


def test_dscp_to_class_mapping():
    assert class_of_dscp(DSCP_CS0) == 0
    assert class_of_dscp(DSCP_EF) == CLASS_PRIORITY
    assert class_of_dscp(31) == 0
    assert class_of_dscp(32) == CLASS_PRIORITY
