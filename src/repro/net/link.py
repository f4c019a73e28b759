"""Ports and full-duplex links with rate, delay, queueing, and failure.

A :class:`Link` joins exactly two :class:`Port` objects and models each
direction independently: a transmitter serializes frames at the link
rate (drop-tail queue while busy), then the frame propagates for the
configured delay and is delivered to the far node.

Failure semantics:

* ``fail()`` stops both directions immediately; frames being serialized
  or in flight are lost (as on a cut fiber) whatever the link's state by
  the time they would have arrived, and queued frames drop.
* If ``carrier_detect`` is true (default), both endpoints' nodes get
  ``on_port_down``/``on_port_up`` callbacks, like a PHY loss-of-signal
  interrupt. Experiments that study *timeout-based* detection (LDP
  keepalive loss, Fig. 10's worst case) construct links with
  ``carrier_detect=False`` so failures are silent.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import LinkError
from repro.net.ethernet import EthernetFrame
from repro.sim.events import PRIORITY_HIGH
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

#: Preamble (8B) + inter-frame gap (12B) charged per frame on the wire.
PER_FRAME_OVERHEAD_BYTES = 20

#: Fraction of the link rate a direction always keeps available to each
#: side of a hybrid run, however loaded the other side is. Keeps a
#: frame-congested direction from reading as *carrier-dead* to the fluid
#: engine (capacity 0 would make it drop the pinned path) and keeps
#: fluid saturation from stretching frame serialization to infinity.
HYBRID_CAPACITY_FLOOR = 0.01

#: 1 Gb/s, the paper's testbed link speed.
DEFAULT_RATE_BPS = 1_000_000_000
#: A conservative intra-rack propagation delay.
DEFAULT_DELAY_S = 1e-6
#: Default drop-tail queue capacity per direction.
DEFAULT_QUEUE_BYTES = 512 * 1024

#: ``_Direction.busy_until`` of a wire nothing is being serialized onto.
_NEVER = float("-inf")


class PortCounters:
    """Per-port traffic counters."""

    __slots__ = ("tx_frames", "tx_bytes", "rx_frames", "rx_bytes", "drops")

    def __init__(self) -> None:
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.drops = 0


class Port:
    """One attachment point on a node. At most one link per port."""

    __slots__ = ("node", "index", "link", "_tx", "_counters", "_enabled")

    def __init__(self, node: "Node", index: int) -> None:
        self.node = node
        self.index = index
        self.link: Link | None = None
        #: Transmit direction of ``link`` that starts here (set by
        #: :class:`Link`; kept after a detach until the port is rewired).
        self._tx: _Direction | None = None
        # Incremented in place; read through ``counters``, which first
        # writes in what the link's keepalive streams owe them.
        self._counters = PortCounters()
        self._enabled = True

    @property
    def name(self) -> str:
        """``<node>[<index>]`` for traces."""
        return f"{self.node.name}[{self.index}]"

    @property
    def counters(self) -> PortCounters:
        """Traffic counters, as of the current simulated instant."""
        if self.link is not None:
            self.link.settle()
        return self._counters

    @property
    def enabled(self) -> bool:
        """Administrative state; a port can be disabled independently of
        its link (used to model switch-local port shutdown)."""
        return self._enabled

    @enabled.setter
    def enabled(self, enabled: bool) -> None:
        if self.link is not None:
            # What arrives here from now on is judged by the new state.
            self.link.settle(close=True,
                             redeliver=self.link.other_end(self)._tx)
        self._enabled = enabled
        if self.link is not None:
            self.link._refresh_capacity()

    @property
    def is_up(self) -> bool:
        """True when enabled, wired, and the link is not failed."""
        return self._enabled and self.link is not None and not self.link.failed

    @property
    def peer(self) -> "Port | None":
        """The port at the other end of our link, if wired."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def send(self, frame: EthernetFrame) -> bool:
        """Transmit ``frame``. Returns False (and counts a drop) when the
        port is down or the link queue is full."""
        if not self._enabled or self.link is None:
            self._counters.drops += 1
            return False
        return self.link.transmit(self, frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wired = "wired" if self.link is not None else "unwired"
        return f"<Port {self.name} {wired}>"


class _Direction:
    """Everything a link knows about one transmit direction.

    A direction *streams* while it holds the ``stream_log`` of a sender
    that repeats a frame on it (docs/PERF.md, "Keepalive floor"): each
    repetition is a frame that found the wire free at its instant and
    arrives one flight later, and what it does — to the counters at
    both ends, ``busy_until``/``done_seq``, the pending
    ``stream_arrival`` and the ``stream_receiver``'s stamps — is written
    in only when :meth:`Link.settle` runs, with the float expressions of
    a start of transmission (the free-wire start in :meth:`Link.transmit`
    and :meth:`Link._start_transmission`'s dequeue).

    The fields after ``class_queues`` stay at their initial values
    outside unidirectional-failure, hybrid and policy runs, so the
    classic frame and fluid paths execute the exact same float
    operations as before they existed (golden-trace identical).
    """

    __slots__ = ("queue", "queued_bytes", "transmitting", "busy_until",
                 "done_seq", "cuts", "stream_log", "stream_receiver",
                 "stream_hear_delay", "stream_seen", "stream_arrival",
                 "class_queues", "failed_tx", "fluid_bps", "frame_bps",
                 "fluid_tx_bytes", "class_tx_bytes", "class_drops",
                 "fluid_capacity")

    def __init__(self) -> None:
        # Best-effort FIFO, created by the first frame that has to wait:
        # most directions never queue anything.
        self.queue: deque[EthernetFrame] | None = None
        self.queued_bytes = 0
        # The latest frame put on the wire stops serializing at
        # ``busy_until``, and ``done_seq`` holds the place in the
        # kernel's order at which that happens (Simulator.reserve). It
        # is a fact until a frame has to wait for it; only then is it
        # also a pending ``_transmission_done`` event — ``transmitting``
        # — pushed into the place it always had (docs/PERF.md, "One
        # event per uncontended hop").
        self.busy_until = _NEVER
        self.done_seq = 0
        self.transmitting = False
        #: How often the direction was cut. Events of frames that were on
        #: the wire carry the count they started under; a cut in between
        #: makes them void.
        self.cuts = 0
        # The stream: its sender's log, whom it tells when the far end
        # hears a repetition and after what delay, the log's count up
        # to which repetitions are written in, and the arrival (instant,
        # place, frame) of the last one written in while it is yet to be
        # received — also after the stream has closed.
        self.stream_log: BeaconLog | None = None
        self.stream_receiver = None
        self.stream_hear_delay = 0.0
        self.stream_seen = 0
        self.stream_arrival: tuple | None = None
        # Strict-priority queues for tclass > 0 frames, created lazily by
        # the first classed frame that has to wait behind a busy
        # transmitter. None on every direction that only ever carries
        # best-effort traffic, so the classic dequeue path — and the
        # golden trace — is untouched by the queues existing at all.
        self.class_queues: dict[int, deque[EthernetFrame]] | None = None
        #: This direction alone is dead (see Link.fail_direction).
        self.failed_tx = False
        #: Gross fluid rate currently allocated (hybrid mode), else 0.
        self.fluid_bps = 0.0
        #: Frame-path load estimate (hybrid epoch EWMA), else 0.
        self.frame_bps = 0.0
        #: ``Link.fluid_capacity_bps``, kept current by the link.
        self.fluid_capacity = 0.0
        #: Cumulative fluid-charged tx bytes — lets the epoch tick
        #: separate frame bytes out of tx_bytes.
        self.fluid_tx_bytes = 0
        # Per-class accounting {tclass: count}, created by the first
        # classed (tclass > 0) frame; class 0 is the port counter totals
        # minus these.
        self.class_tx_bytes: dict[int, int] | None = None
        self.class_drops: dict[int, int] | None = None

    def clear(self) -> None:
        """Drop what is queued or being serialized (the link was cut)."""
        self.queue = None
        self.queued_bytes = 0
        self.transmitting = False
        self.busy_until = _NEVER
        self.cuts += 1
        self.class_queues = None


class BeaconLog:
    """A sender's repetitions of a frame, as the directions that stream
    them read them (see :class:`_Direction`).

    A repetition (:meth:`beacon`) goes out on the sender's ports in port
    order. Ports that take it one by one (a real frame, say) hold their
    places in the event order as they go, each followed by a
    :meth:`mark`; in between, each run of streamed ports shares one
    reserved place, which :meth:`place` ranks by port index.
    """

    __slots__ = ("sim", "count", "at", "before", "frame", "places",
                 "marks", "live")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Repetitions so far, the instants of the last two, the last
        #: frame, the places of its runs and the ports marked between.
        self.count = 0
        self.at = self.before = 0.0
        self.frame: EthernetFrame | None = None
        self.places: list[int] = []
        self.marks: list[int] = []
        #: Directions streaming this log's repetitions.
        self.live = 0

    def beacon(self, frame: EthernetFrame) -> None:
        """Log a repetition of ``frame`` now; its first run takes the
        next place. Every port that sends or streams the repetition
        shares this one object, so it is sized once, by whichever reads
        its length first."""
        self.count += 1
        self.before = self.at
        self.at = self.sim.now
        self.frame = frame
        self.places = [self.sim.reserve()]
        self.marks = []

    def mark(self, index: int) -> None:
        """Port ``index``, past every port marked so far, had its turn
        at this repetition: streams on later ports go in a new run,
        after it."""
        self.marks.append(index)
        self.places.append(self.sim.reserve())

    def place(self, index: int) -> float:
        """The place of the repetition streamed on port ``index``: its
        run's, plus a rank in [0, 1) that grows with the index, so the
        streams of one repetition end serializing in port order, and
        never tie, when events take their places."""
        return (self.places[bisect_left(self.marks, index)]
                + index / (index + 1))


class Link:
    """A full-duplex point-to-point link."""

    __slots__ = ("sim", "a", "b", "rate_bps", "delay_s", "queue_bytes",
                 "carrier_detect", "failed", "name", "_sec_per_byte",
                 "_state_listeners", "loss_rate", "_loss_rng", "_directions",
                 "priority_queues")

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        rate_bps: float = DEFAULT_RATE_BPS,
        delay_s: float = DEFAULT_DELAY_S,
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        carrier_detect: bool = True,
        name: str | None = None,
        loss_rate: float = 0.0,
        priority_queues: bool = True,
    ) -> None:
        if a.link is not None or b.link is not None:
            raise LinkError(f"port already wired: {a if a.link else b}")
        if a is b:
            raise LinkError("cannot wire a port to itself")
        if rate_bps <= 0 or delay_s < 0 or queue_bytes < 0:
            raise LinkError("invalid link parameters")
        if not 0.0 <= loss_rate < 1.0:
            raise LinkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.a = a
        self.b = b
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue_bytes = queue_bytes
        self.carrier_detect = carrier_detect
        self.failed = False
        self.name = name or f"{a.name}<->{b.name}"
        # Per-byte serialization cost, fixed at construction so the hot
        # path multiplies instead of recomputing from the bandwidth on
        # every frame.
        self._sec_per_byte = 8.0 / rate_bps
        #: Listeners called (no arguments) after any carrier-state change:
        #: fail, fail_direction, recover, detach. Compiled-path caches use
        #: this to retire paths that traverse the link.
        self._state_listeners: list = []
        #: Random per-frame drop probability (0 = perfect link).
        self.loss_rate = loss_rate
        self._loss_rng = (sim.random.stream(f"link-loss/{self.name}")
                          if loss_rate > 0 else None)
        #: One object per transmit direction, also the source port's
        #: ``_tx`` so the per-frame path has nothing to look up.
        self._directions = a._tx, b._tx = _Direction(), _Direction()
        #: Serve tclass > 0 frames from strict-priority egress queues.
        #: False degrades every direction to a single FIFO — the
        #: comparison arm `make bench-policy` measures against.
        self.priority_queues = priority_queues
        a.link = self
        b.link = self
        self._refresh_capacity()
        if carrier_detect:
            # Plugging a cable in asserts carrier at both ends, exactly
            # like a real NIC/PHY. Agents use this to notice new hosts.
            self.sim.schedule(0.0, self._notify_up, priority=PRIORITY_HIGH)

    def other_end(self, port: Port) -> Port:
        """The opposite port of ``port`` on this link."""
        if port is self.a:
            return self.b
        if port is self.b:
            return self.a
        raise LinkError(f"{port} is not an endpoint of {self.name}")

    def serialization_time(self, frame: EthernetFrame,
                           src_port: Port | None = None) -> float:
        """Seconds to clock ``frame`` (plus preamble/IFG) onto the wire.

        When ``src_port`` is given and fluid flows hold part of that
        direction (hybrid mode), the frame only gets the residual rate:
        serialization stretches by ``rate / (rate - fluid)``, floored at
        :data:`HYBRID_CAPACITY_FLOOR` so a fluid-saturated direction
        degrades instead of stalling. With no fluid load registered the
        classic single-mode expression runs unchanged.
        """
        base = (frame.wire_length() + PER_FRAME_OVERHEAD_BYTES) * self._sec_per_byte
        if src_port is not None and src_port._tx.fluid_bps > 0.0:
            return self._stretched(base, src_port._tx.fluid_bps)
        return base

    def _stretched(self, base: float, fluid_bps: float) -> float:
        residual = max(self.rate_bps - fluid_bps,
                       self.rate_bps * HYBRID_CAPACITY_FLOOR)
        return base * (self.rate_bps / residual)

    def direction(self, src_port: Port) -> _Direction:
        """The object of the ``src_port`` → peer direction."""
        return src_port._tx

    def add_state_listener(self, listener) -> None:
        """Call ``listener()`` after every carrier-state change of this
        link (fail/fail_direction/recover/detach)."""
        self._state_listeners.append(listener)

    def can_carry(self, src_port: Port) -> bool:
        """Whether a frame transmitted from ``src_port`` would currently
        traverse (no full or ``src_port``-direction failure)."""
        return not self.failed and not src_port._tx.failed_tx

    def capacity_bps(self, src_port: Port) -> float:
        """Usable capacity of the ``src_port`` → peer direction, in bits
        per second — 0 when the direction is administratively disabled,
        unwired at either end, or failed. This is the per-direction
        constraint the flow-level (fluid) engine water-fills against."""
        if not src_port.enabled or not self.can_carry(src_port):
            return 0.0
        if not self.other_end(src_port).enabled:
            return 0.0
        return self.rate_bps

    def fluid_capacity_bps(self, src_port: Port) -> float:
        """Capacity the fluid engine may water-fill in the ``src_port``
        direction: :meth:`capacity_bps` minus the frame path's measured
        load (hybrid mode), floored at :data:`HYBRID_CAPACITY_FLOOR` of
        the rate so frame congestion is never mistaken for a dead
        direction. Identical to :meth:`capacity_bps` outside hybrid runs
        (no frame load registered)."""
        cap = self.capacity_bps(src_port)
        frame = src_port._tx.frame_bps
        if cap <= 0.0 or frame <= 0.0:
            return cap
        return max(cap - frame, self.rate_bps * HYBRID_CAPACITY_FLOOR)

    def set_fluid_load(self, src_port: Port, bps: float) -> None:
        """Register the gross fluid rate allocated over the ``src_port``
        direction (hybrid mode). Zero/negative clears it, so
        serialization stays bit-identical whenever no fluid flow
        actually crosses the direction."""
        bps = bps if bps > 0.0 else 0.0
        direction = src_port._tx
        if bps != direction.fluid_bps and direction.stream_log is not None:
            self.settle(close=True)  # it serializes at the old rate
        direction.fluid_bps = bps

    def set_frame_load(self, src_port: Port, bps: float) -> None:
        """Register the frame path's estimated load on the ``src_port``
        direction (hybrid mode epoch tick). Zero/negative clears."""
        src_port._tx.frame_bps = bps if bps > 0.0 else 0.0
        self._refresh_capacity()

    def _refresh_capacity(self) -> None:
        """After a carrier, port-``enabled`` or frame-load change."""
        for direction, src_port in zip(self._directions, (self.a, self.b)):
            direction.fluid_capacity = self.fluid_capacity_bps(src_port)

    def class_tx_bytes(self, src_port: Port) -> dict[int, int]:
        """Wire bytes transmitted per traffic class on the ``src_port``
        direction. Classed (tclass > 0) traffic only; class 0 is
        ``counters.tx_bytes`` minus the sum of these."""
        return dict(src_port._tx.class_tx_bytes or ())

    def class_drops(self, src_port: Port) -> dict[int, int]:
        """Queue-full drops per traffic class on the ``src_port``
        direction (classed traffic only)."""
        return dict(src_port._tx.class_drops or ())

    def frame_tx_bytes(self, src_port: Port) -> int:
        """Transmit bytes the *frame* path put on the ``src_port``
        direction: the port counter minus fluid-charged bytes."""
        return src_port.counters.tx_bytes - src_port._tx.fluid_tx_bytes

    def fluid_charge(self, src_port: Port, frames: int, nbytes: int) -> None:
        """Charge ``frames``/``nbytes`` of fluid (flow-level) traffic to
        the ``src_port`` → peer direction's counters.

        The flow engine advances flows in rate-sized chunks instead of
        per-frame events; this books the equivalent tx/rx totals so
        :mod:`repro.metrics.utilization` aggregates are mode-agnostic.
        (Counts only add up, so what a stream owes them can wait.)
        """
        src = src_port._counters
        src.tx_frames += frames
        src.tx_bytes += nbytes
        src_port._tx.fluid_tx_bytes += nbytes
        dst = (self.b if src_port is self.a else self.a)._counters
        dst.rx_frames += frames
        dst.rx_bytes += nbytes

    def _notify_state(self) -> None:
        self._refresh_capacity()
        for listener in self._state_listeners:
            listener()

    def transmit(self, src_port: Port, frame: EthernetFrame) -> bool:
        """Send ``frame`` from ``src_port`` toward the other end.

        A frame that finds the wire free starts in this call: the
        transmit side is charged, the end of its serialization is noted
        under the sequence number its event would have taken, and its
        delivery is scheduled — what :meth:`_start_transmission` does for
        a frame taken off the queue, with the same float expressions. A
        frame that finds it busy waits (docs/PERF.md, "Frame path").
        """
        direction = src_port._tx
        if direction.stream_log is not None:
            self.settle(close=True)
        if self.failed or direction.failed_tx:
            src_port._counters.drops += 1
            return False
        size = frame._wire_len
        if size is None:
            size = frame.wire_length()
        sim = self.sim
        # The wire is free when nothing waits and the last serialization
        # ended before now; a tie is :meth:`_wire_free`'s to decide.
        if not direction.transmitting and (
                sim.now > direction.busy_until or self._wire_free(direction)):
            duration = (size + PER_FRAME_OVERHEAD_BYTES) * self._sec_per_byte
            if direction.fluid_bps > 0.0:
                duration = self._stretched(duration, direction.fluid_bps)
            counters = src_port._counters
            counters.tx_frames += 1
            counters.tx_bytes += size
            if frame.tclass:
                self._charge_class(direction, frame.tclass, size)
            direction.busy_until = sim.now + duration
            direction.done_seq = sim.reserve()
            sim.schedule(duration + self.delay_s, self._deliver,
                         src_port, direction, frame, direction.cuts, size)
            return True
        if direction.queued_bytes + size > self.queue_bytes:
            src_port._counters.drops += 1
            if frame.tclass:
                per = direction.class_drops
                if per is None:
                    per = direction.class_drops = {}
                per[frame.tclass] = per.get(frame.tclass, 0) + 1
            trace = sim.trace
            if trace.wants("link.drop"):
                trace.emit(sim.now, "link.drop", self.name,
                           port=src_port.name, reason="queue_full",
                           frame=repr(frame))
            return False
        if frame.tclass and self.priority_queues:
            queues = direction.class_queues
            if queues is None:
                queues = direction.class_queues = {}
            queues.setdefault(frame.tclass, deque()).append(frame)
        elif direction.queue is None:
            direction.queue = deque((frame,))
        else:
            direction.queue.append(frame)
        direction.queued_bytes += size
        if not direction.transmitting:
            self._await_wire(src_port, direction)
        return True

    def _wire_free(self, direction: _Direction) -> bool:
        """Whether a frame can start serializing right now: nothing
        waits, and the end of the previous serialization is in the past
        — of the executing event, not just of the clock. Equal-size
        frames on equal-rate links arrive at the very instant the wire
        frees, and which of the two comes first has to be what the
        kernel's order always said."""
        if direction.transmitting:
            return False
        now = self.sim.now
        busy_until = direction.busy_until
        return now > busy_until or (
            now == busy_until
            and self.sim.has_fired(busy_until, direction.done_seq))

    def _await_wire(self, src_port: Port, direction: _Direction) -> None:
        """A frame now waits for the wire, so the end of the
        serialization in progress turns into the event that will start
        it — in the place that end always held."""
        direction.transmitting = True
        self.sim.schedule_reserved(
            direction.busy_until, direction.done_seq,
            self._transmission_done, src_port, direction, direction.cuts)

    def _start_transmission(self, src_port: Port, direction: _Direction,
                            frame: EthernetFrame) -> None:
        """Put ``frame``, just taken off the queue, on the wire, which
        is free, now: charge the transmit side, keep the wire for the
        serialization time, and schedule the delivery. With frames
        queued behind this one the end of serialization is an event;
        with none it is only noted, under the sequence number the event
        would have taken."""
        sim = self.sim
        size = frame._wire_len  # sized by transmit before it queued
        duration = (size + PER_FRAME_OVERHEAD_BYTES) * self._sec_per_byte
        if direction.fluid_bps > 0.0:
            duration = self._stretched(duration, direction.fluid_bps)
        counters = src_port._counters
        counters.tx_frames += 1
        counters.tx_bytes += size
        if frame.tclass:
            self._charge_class(direction, frame.tclass, size)
        if direction.queued_bytes:
            sim.schedule(duration, self._transmission_done,
                         src_port, direction, direction.cuts)
        else:
            direction.transmitting = False
            direction.busy_until = sim.now + duration
            direction.done_seq = sim.reserve()
        sim.schedule(duration + self.delay_s, self._deliver,
                     src_port, direction, frame, direction.cuts, size)

    @staticmethod
    def _charge_class(direction: _Direction, tclass: int, size: int) -> None:
        per = direction.class_tx_bytes
        if per is None:
            per = direction.class_tx_bytes = {}
        per[tclass] = per.get(tclass, 0) + size

    def open_stream(self, src_port: Port, log: BeaconLog, receiver,
                    hear_delay: float) -> bool:
        """Stream the frame ``log`` recorded last, and every repetition
        it records after it, on the ``src_port`` direction — if each is
        certain to start at its instant and to arrive: both directions
        healthy, both ports enabled, no random loss, and the wire free
        now (a stream closes before anything else transmits). The far
        end hears each one ``hear_delay`` after it arrives, and
        ``receiver`` learns it: ``hear(heard_at, heard_before, frame)``
        when a repetition is written in (``heard_before`` is ``None``
        when only that one is new), ``unhear()`` when it is lost or
        handed back after all; its ``fed_by`` is this link while the
        stream lasts. False means nothing was opened and the frame
        should be transmitted."""
        direction = src_port._tx
        if direction.stream_arrival is not None:
            self.settle()  # a closed stream's last arrival may be in by now
        dst_port = self.b if src_port is self.a else self.a
        if (direction.stream_log is not None
                or direction.stream_arrival is not None
                or self.failed or direction.failed_tx or dst_port._tx.failed_tx
                or self.loss_rate or log.frame.tclass
                or not src_port._enabled or not dst_port._enabled
                or not self._wire_free(direction)):
            # (Either direction failed: not worth telling them apart.)
            return False
        direction.stream_log = log
        direction.stream_receiver = receiver
        receiver.fed_by = self
        direction.stream_hear_delay = hear_delay
        # It starts with the latest repetition.
        direction.stream_seen = log.count - 1
        log.live += 1
        return True

    def streaming(self, src_port: Port) -> bool:
        """Whether the ``src_port`` direction streams repetitions."""
        return src_port._tx.stream_log is not None

    def settle(self, close: bool = False, cut: tuple = (),
               redeliver: _Direction | None = None) -> None:
        """Write in what the streams of both directions owe, as of now:
        the repetitions logged since the last call, and the arrival of
        the last one once its place in the event order has been passed.
        Every read or disturbance of that state comes through here.

        With ``close`` both directions stop streaming. A direction in
        ``cut`` is being cut, and a last repetition still on its way is
        lost with everything else on the wire. On ``redeliver``, whose
        far port is changing state, it becomes the frame it stood for
        again, in its place, for :meth:`_deliver` to judge on arrival.
        """
        sim = self.sim
        first, second = self._directions
        for direction, src, dst in ((first, self.a, self.b),
                                    (second, self.b, self.a)):
            log = direction.stream_log
            arrival = direction.stream_arrival
            arrived = 0
            if log is not None and log.count != direction.stream_seen:
                new = log.count - direction.stream_seen
                direction.stream_seen = log.count
                frame = log.frame
                duration = self.serialization_time(frame, src)
                flight = duration + self.delay_s
                counters = src._counters
                counters.tx_frames += new
                counters.tx_bytes += new * frame.wire_length()
                direction.busy_until = log.at + duration
                direction.done_seq = seq = log.place(src.index)
                # All but the newest have arrived, and the one pending
                # before them: repetitions are a beacon period apart, a
                # flight takes microseconds.
                arrived = new - 1 + (arrival is not None)
                deliver_at = log.at + flight
                arrival = direction.stream_arrival = (deliver_at, seq, frame)
                delay = direction.stream_hear_delay
                before = (log.before + flight) + delay if new > 1 else None
                direction.stream_receiver.hear(deliver_at + delay, before,
                                               frame)
            if log is not None and close:
                direction.stream_log = None
                direction.stream_receiver.fed_by = None
                log.live -= 1
            if arrival is not None:
                deliver_at, seq, frame = arrival
                if sim.has_fired(deliver_at, seq):
                    direction.stream_arrival = None
                    arrived += 1
                elif direction in cut or direction is redeliver:
                    direction.stream_arrival = None
                    direction.stream_receiver.unhear()
                    if direction is redeliver:
                        sim.schedule_reserved(
                            deliver_at, seq, self._deliver, src, direction,
                            frame, direction.cuts, frame.wire_length())
            if arrived:
                counters = dst._counters
                counters.rx_frames += arrived
                counters.rx_bytes += arrived * frame.wire_length()

    def _transmission_done(self, src_port: Port, direction: _Direction,
                           cuts: int) -> None:
        if cuts != direction.cuts:
            # The frame whose end this was died in a cut, which also
            # flushed the queue; the wire belongs to whatever was sent
            # since.
            return
        frame = None
        queues = direction.class_queues
        if queues:
            # Strict priority: the highest waiting class transmits next,
            # always ahead of anything in the best-effort FIFO.
            for tclass in sorted(queues, reverse=True):
                pending = queues[tclass]
                if pending:
                    frame = pending.popleft()
                    if not pending:
                        del queues[tclass]
                    break
        if frame is None and direction.queue:
            frame = direction.queue.popleft()
            if queues and self.sim.trace.wants("verify.class_inversion"):
                # Unreachable by construction (classed queues drained
                # above); a live tripwire the invariant oracle watches so
                # any future dequeue reordering surfaces as a violation.
                self.sim.trace.emit(
                    self.sim.now, "verify.class_inversion", self.name,
                    port=src_port.name,
                    waiting=sorted(queues))  # pragma: no cover
        if frame is not None:
            direction.queued_bytes -= frame._wire_len
            self._start_transmission(src_port, direction, frame)
        else:
            direction.transmitting = False

    def _deliver(self, src_port: Port, direction: _Direction,
                 frame: EthernetFrame, cuts: int, size: int) -> None:
        if cuts != direction.cuts:
            # The cut happened while the frame was on the wire: it is
            # lost, even if the link has recovered since.
            return
        if self._loss_rng is not None and self._loss_rng.random() < self.loss_rate:
            src_port._counters.drops += 1
            if self.sim.trace.wants("link.loss"):
                self.sim.trace.emit(self.sim.now, "link.loss", self.name,
                                    port=src_port.name)
            return
        dst_port = self.b if src_port is self.a else self.a
        if not dst_port._enabled:
            dst_port._counters.drops += 1
            return
        counters = dst_port._counters
        counters.rx_frames += 1
        counters.rx_bytes += size
        dst_port.node.receive(frame, dst_port)

    def fail(self) -> None:
        """Cut the link: drop queued and in-flight frames, notify endpoints
        if carrier detection is on. Idempotent."""
        if self.failed:
            return
        self.failed = True
        self.settle(close=True, cut=self._directions)
        for direction in self._directions:
            direction.clear()
        self.sim.trace.emit(self.sim.now, "link.fail", self.name)
        self._notify_state()
        if self.carrier_detect:
            # High priority so agents observe the loss before packets that
            # would otherwise arrive "at the same instant".
            self.sim.schedule(0.0, self._notify_down, priority=PRIORITY_HIGH)

    def fail_direction(self, src_port: Port) -> None:
        """Silently kill only the ``src_port`` → peer direction.

        Models a unidirectional failure (bad optics, one-way fibre cut):
        no carrier event is raised — only the *receiving* side can notice,
        via protocol keepalive loss. Recover with :meth:`recover`.
        """
        if src_port not in (self.a, self.b):
            raise LinkError(f"{src_port} is not an endpoint of {self.name}")
        self.settle(close=True, cut=(src_port._tx,))
        src_port._tx.failed_tx = True
        src_port._tx.clear()
        if self.sim.trace.wants("link.fail_direction"):
            self.sim.trace.emit(self.sim.now, "link.fail_direction",
                                self.name, from_port=src_port.name)
        self._notify_state()

    def recover(self) -> None:
        """Restore a failed link (full or unidirectional). Idempotent."""
        was_failed = self.failed
        for direction in self._directions:
            was_failed = was_failed or direction.failed_tx
            direction.failed_tx = False
        if not was_failed:
            return
        fully_failed = self.failed
        self.failed = False
        self.sim.trace.emit(self.sim.now, "link.recover", self.name)
        self._notify_state()
        if fully_failed and self.carrier_detect:
            self.sim.schedule(0.0, self._notify_up, priority=PRIORITY_HIGH)

    def detach(self) -> None:
        """Unwire both ports so they can be re-linked elsewhere.

        Used to model physically moving a cable (e.g. a VM migrating to a
        different edge switch). Any queued or in-flight frames are lost.
        """
        if not self.failed:
            self.fail()
        self.a.link = None
        self.b.link = None
        # fail() already notified if the link was up; notify again so
        # listeners observe the unwiring even on an already-failed link.
        self._notify_state()

    def _notify_down(self) -> None:
        for port in (self.a, self.b):
            port.node.on_port_down(port)

    def _notify_up(self) -> None:
        for port in (self.a, self.b):
            port.node.on_port_up(port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "FAILED" if self.failed else "up"
        return f"<Link {self.name} {state}>"
