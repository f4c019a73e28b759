"""Unit tests for links, ports, and failure semantics."""

import pytest

from repro.errors import LinkError
from repro.net import AppData, EthernetFrame, Link, mac
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.node import Node
from repro.net.link import Port
from repro.sim import Simulator, TraceCollector


class Sink(Node):
    """Records (time, frame) arrivals and port up/down events."""

    def __init__(self, sim, name, ports=1):
        super().__init__(sim, name, ports)
        self.received = []
        self.downs = 0
        self.ups = 0

    def receive(self, frame, in_port):
        self.received.append((self.sim.now, frame))

    def on_port_down(self, port):
        self.downs += 1

    def on_port_up(self, port):
        self.ups += 1


def frame(length=100, tclass=0):
    return EthernetFrame(mac("ff:ff:ff:ff:ff:ff"), mac("00:00:00:00:00:01"),
                         ETHERTYPE_IPV4, AppData(length), tclass=tclass)


def wire(sim, a, b, **kwargs):
    return Link(sim, a.port(0), b.port(0), **kwargs)


def test_delivery_latency_is_serialization_plus_propagation():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, rate_bps=1e9, delay_s=10e-6, carrier_detect=False)
    f = frame(100)
    a.port(0).send(f)
    sim.run()
    expected = (f.wire_length() + 20) * 8 / 1e9 + 10e-6
    assert b.received[0][0] == pytest.approx(expected)


def test_full_duplex_directions_are_independent():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b)
    a.port(0).send(frame())
    b.port(0).send(frame())
    sim.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_frames_queue_while_transmitting():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b, rate_bps=1e6, delay_s=0.0)  # slow link
    for _ in range(3):
        assert a.port(0).send(frame(1000))
    sim.run()
    assert len(b.received) == 3
    arrival_times = [t for t, _f in b.received]
    gaps = [t2 - t1 for t1, t2 in zip(arrival_times, arrival_times[1:])]
    serialization = (frame(1000).wire_length() + 20) * 8 / 1e6
    for gap in gaps:
        assert gap == pytest.approx(serialization)


def test_queue_overflow_drops_tail():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    # Queue fits one queued frame (plus one transmitting).
    wire(sim, a, b, rate_bps=1e6, queue_bytes=1100)
    results = [a.port(0).send(frame(1000)) for _ in range(4)]
    sim.run()
    assert results[0] is True  # transmitting
    assert results[1] is True  # queued
    assert results[2] is False  # dropped
    assert a.port(0).counters.drops == 2
    assert len(b.received) == 2


def test_unobserved_queue_drop_formats_nothing(monkeypatch):
    """A record nobody subscribed to costs nothing: with no listener a
    queue-full drop builds neither the frame's repr nor the port's
    name; with one, the record is what it always was."""
    formatted = []
    port_name = Port.name.fget
    monkeypatch.setattr(
        EthernetFrame, "__repr__",
        lambda self: formatted.append("repr") or "<frame>")
    monkeypatch.setattr(
        Port, "name",
        property(lambda self: formatted.append("name") or port_name(self)))

    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, rate_bps=1e6, queue_bytes=1100)
    formatted.clear()  # the link's own name is built from its ports'
    assert [a.port(0).send(frame(1000)) for _ in range(3)] == [
        True, True, False]
    assert formatted == []

    drops = TraceCollector(sim.trace, "link.drop")
    assert a.port(0).send(frame(1000)) is False
    assert sorted(formatted) == ["name", "repr"]
    (record,) = drops.records
    assert (record.time, record.source) == (sim.now, link.name)
    assert record.detail == {"port": "a[0]", "reason": "queue_full",
                             "frame": "<frame>"}
    assert a.port(0).counters.drops == 2


def test_fail_drops_in_flight_and_queued():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, rate_bps=1e6, delay_s=0.001, carrier_detect=False)
    a.port(0).send(frame(1000))
    a.port(0).send(frame(1000))
    sim.schedule(0.0005, link.fail)  # mid-flight
    sim.run()
    assert b.received == []
    assert not a.port(0).is_up


def test_send_on_failed_link_counts_drop():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, carrier_detect=False)
    link.fail()
    assert a.port(0).send(frame()) is False
    assert a.port(0).counters.drops == 1


def test_carrier_notifications_on_fail_and_recover():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, carrier_detect=True)
    sim.run()  # flush plug-in carrier-up
    assert a.ups == 1 and b.ups == 1
    link.fail()
    link.fail()  # idempotent
    sim.run()
    assert a.downs == 1 and b.downs == 1
    link.recover()
    sim.run()
    assert a.ups == 2 and b.ups == 2
    assert a.port(0).is_up


def test_no_carrier_notifications_when_disabled():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, carrier_detect=False)
    link.fail()
    link.recover()
    sim.run()
    assert a.downs == b.downs == 0
    assert a.ups == b.ups == 0


def test_recover_restores_delivery():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, carrier_detect=False)
    link.fail()
    link.recover()
    a.port(0).send(frame())
    sim.run()
    assert len(b.received) == 1


def test_detach_frees_ports_for_rewiring():
    sim = Simulator()
    a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
    link = wire(sim, a, b)
    link.detach()
    assert a.port(0).link is None
    # Re-wire a to c.
    wire(sim, a, c)
    a.port(0).send(frame())
    sim.run()
    assert len(c.received) == 1
    assert b.received == []


def test_double_wiring_rejected():
    sim = Simulator()
    a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
    wire(sim, a, b)
    with pytest.raises(LinkError):
        wire(sim, a, c)
    with pytest.raises(LinkError):
        Link(sim, c.port(0), c.port(0))


def test_disabled_port_drops_rx_and_tx():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b)
    b.port(0).enabled = False
    a.port(0).send(frame())
    sim.run()
    assert b.received == []
    assert b.port(0).counters.drops == 1
    assert b.port(0).send(frame()) is False


def test_each_direction_keeps_its_fluid_capacity_current():
    """A direction's ``fluid_capacity`` (what the fluid engine's refill
    reads) is ``Link.fluid_capacity_bps`` re-derived after every change
    of an input to it: a port's ``enabled``, the carrier, a frame load."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    a.port(0).enabled = False  # before it is wired
    link = wire(sim, a, b, rate_bps=1e6)
    pa, pb = a.port(0), b.port(0)

    def capacities():
        held = [link.direction(port).fluid_capacity for port in (pa, pb)]
        assert held == [link.fluid_capacity_bps(port) for port in (pa, pb)]
        return held

    assert capacities() == [0.0, 0.0]
    pa.enabled = True
    assert capacities() == [1e6, 1e6]
    link.set_frame_load(pb, 4e5)
    assert capacities() == [1e6, 6e5]
    link.fail_direction(pa)
    assert capacities() == [0.0, 6e5]
    link.recover()
    assert capacities() == [1e6, 6e5]
    pb.enabled = False
    assert capacities() == [0.0, 0.0]
    pb.enabled = True
    link.fail()
    assert capacities() == [0.0, 0.0]
    link.recover()
    assert capacities() == [1e6, 6e5]
    link.detach()
    assert capacities() == [0.0, 0.0]


def test_counters_track_bytes():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b)
    f = frame(200)
    a.port(0).send(f)
    sim.run()
    assert a.port(0).counters.tx_bytes == f.wire_length()
    assert b.port(0).counters.rx_bytes == f.wire_length()


# ----------------------------------------------------------------------
# One event per uncontended hop (docs/PERF.md): the end of serialization
# is an event only when a frame waits for it, in the place it always had


def test_uncontended_send_is_one_event():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    wire(sim, a, b, carrier_detect=False)
    a.port(0).send(frame())
    assert sim.pending_events() == 1      # the delivery, nothing else
    sim.run()
    assert len(b.received) == 1
    assert sim.events_executed == 1


def test_second_send_during_serialization_makes_the_end_an_event():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, rate_bps=1e9, delay_s=1e-6, carrier_detect=False)
    first, second = frame(1000), frame(1000)
    serialization = link.serialization_time(first)
    a.port(0).send(first)
    sim.run(until=serialization / 2)
    a.port(0).send(second)
    assert sim.pending_events() == 2      # first's delivery, and now its end
    sim.run()
    # Three events for two frames (the waiting one starts uncontended),
    # and the arrival instants of four: bit for bit what scheduling
    # every end of serialization gives.
    assert sim.events_executed == 3
    assert b.received == [
        (0.0 + (serialization + 1e-6), first),
        ((0.0 + serialization) + (serialization + 1e-6), second)]


@pytest.mark.parametrize("sender_scheduled_first, expected", [
    # The sender runs before the wire frees at that instant: both frames
    # wait, and the strict-priority dequeue puts the urgent one first.
    (True, ["urgent", "bulk"]),
    # It runs after: the wire is free, bulk goes straight out and the
    # urgent frame has to wait behind it.
    (False, ["bulk", "urgent"]),
])
def test_send_at_the_freeing_instant_follows_the_kernels_order(
        sender_scheduled_first, expected):
    """At ``now == busy_until`` the clock cannot say whether the wire is
    free; the order of the sending event and the (never scheduled) end of
    serialization can, and is what decided it when both were events."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, rate_bps=1e9, delay_s=1e-6, carrier_detect=False)
    first = frame(1000)
    frames = {"bulk": frame(1000), "urgent": frame(1000, tclass=1)}
    free_at = 0.0 + link.serialization_time(first)

    def send_both():
        assert sim.now == free_at
        a.port(0).send(frames["bulk"])
        a.port(0).send(frames["urgent"])

    if sender_scheduled_first:
        sim.schedule_at(free_at, send_both)
    a.port(0).send(first)
    if not sender_scheduled_first:
        sim.schedule_at(free_at, send_both)
    sim.run()
    assert [f for _t, f in b.received] == [first] + [frames[n] for n in expected]


# ----------------------------------------------------------------------
# A cut kills what was on the wire, whatever happens afterwards


@pytest.mark.parametrize("one_way", [False, True])
def test_cut_and_recovery_under_a_frame_on_the_wire(one_way):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, rate_bps=1e9, delay_s=1e-6, carrier_detect=False)
    doomed, x, y, reverse = (frame(1400) for _ in range(4))
    serialization = link.serialization_time(doomed)
    assert serialization == pytest.approx(11.504e-6)
    cut = ((lambda: link.fail_direction(a.port(0))) if one_way
           else link.fail)
    a.port(0).send(doomed)                        # on the wire until 11.504 us
    sim.schedule_at(0.5e-6, b.port(0).send, reverse)
    sim.schedule_at(1e-6, cut)
    sim.schedule_at(2e-6, link.recover)
    sim.schedule_at(3e-6, a.port(0).send, x)      # on the wire until 14.504 us
    sim.schedule_at(12.004e-6, a.port(0).send, y)
    sim.run()
    # The frame being serialized when the cut came is lost, although the
    # link is whole again by the time it would have arrived ...
    assert [f for _t, f in b.received] == [x, y]
    # ... and its end of serialization died with it: y, sent while x
    # held the wire, waited for x instead of being clocked out over it.
    x_done = 3e-6 + serialization
    assert b.received[0][0] == pytest.approx(x_done + 1e-6)
    assert b.received[1][0] == pytest.approx(x_done + serialization + 1e-6)
    # A one-way cut leaves the other direction's frame alone.
    assert [f for _t, f in a.received] == ([reverse] if one_way else [])


@pytest.mark.parametrize("one_way", [False, True])
def test_a_cut_voids_the_end_of_serialization_a_frame_waited_for(one_way):
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = wire(sim, a, b, rate_bps=1e9, delay_s=1e-6, carrier_detect=False)
    doomed, waiting, x, y = (frame(1400) for _ in range(4))
    serialization = link.serialization_time(x)
    cut = ((lambda: link.fail_direction(a.port(0))) if one_way
           else link.fail)
    a.port(0).send(doomed)    # on the wire until 11.504 us ...
    a.port(0).send(waiting)   # ... and, as this waits, an event then
    sim.schedule_at(1e-6, cut)
    sim.schedule_at(2e-6, link.recover)
    sim.schedule_at(3e-6, a.port(0).send, x)      # on the wire until 14.504 us
    sim.schedule_at(4e-6, a.port(0).send, y)
    sim.run()
    assert [f for _t, f in b.received] == [x, y]
    # The end of the doomed frame's serialization died in the cut: y
    # waited for x (arriving at 27.008 us), not for the dead end, which
    # would have clocked it out over x at 11.504 us (arriving at 24.008).
    x_done = 3e-6 + serialization
    assert b.received[0][0] == pytest.approx(x_done + 1e-6)
    assert b.received[1][0] == pytest.approx(x_done + serialization + 1e-6)
