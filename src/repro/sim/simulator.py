"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock, the pending events, the
trace bus, and the deterministic random streams. Every other object in
this library (links, hosts, switches, the fabric manager) holds a
reference to one simulator and schedules its behaviour through it.

Typical driver loop::

    sim = Simulator(seed=1)
    ...build topology, hosts, agents...
    sim.run(until=10.0)          # simulated seconds

The pending events are one min-heap of :data:`~repro.sim.events.Event`
lists. A sequence number can also be taken without an event
(:attr:`Simulator.reserve`): the place in the order is held, and an
event may be put into it later — or never, when it turns out nothing
needed to happen there (docs/PERF.md, "One event per uncontended hop").

Cancellation is *lazy*: a cancelled event has its callback cleared and
stays in the heap, skipped when it reaches the top. This keeps
cancellation O(1), which matters because protocol timers (LDP
keepalives, TCP retransmission timers) are cancelled and re-armed far
more often than they fire.

Lazy cancellation alone lets the heap grow without bound when timers are
re-armed faster than their old entries reach the top (a long TCP run
re-arms its retransmission timer on every ACK). The kernel therefore
*compacts* the heap — dropping cancelled entries and re-heapifying —
once cancelled entries outnumber live ones and the heap is big enough
for the O(n) sweep to pay for itself. Amortised cost stays O(1) per
cancellation: each compaction removes at least half the heap, paid for
by the cancellations that created those entries.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import CALLBACK, PRIORITY_NORMAL, Event
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceBus

#: Below this heap size a compaction sweep costs more than it saves.
COMPACT_MIN_HEAP = 64

_INF = float("inf")
# Priorities no event has: they close ``Simulator._position`` off below
# or above every event at its instant.
_BEFORE_ALL = -_INF
_AFTER_ALL = _INF


class Simulator:
    """Discrete-event simulation kernel with a virtual clock in seconds."""

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time in seconds. A plain attribute because it
        #: is read several times per event; only the kernel writes it.
        self.now = 0.0
        #: The queued events, each its own heap entry. Only ever mutated
        #: in place: :meth:`_drain` holds on to the list while callbacks
        #: push, cancel and compact.
        self._heap: list[Event] = []
        #: Queued events that are not cancelled.
        self._live = 0
        self._running = False
        self._stopped = False
        #: How far execution has got in the ``[time, priority, seq]``
        #: order: the event being executed (or, after ``stop()`` /
        #: ``step()``, the last one); after a completed ``run``, a key
        #: past everything at the clock's instant. Only ever compared
        #: with ``<`` (see :meth:`has_fired`).
        self._position: list = [0.0, _BEFORE_ALL]
        #: ``reserve()`` holds the place in the event order that an event
        #: scheduled now would get among others at its instant, without
        #: scheduling one, and returns its number. Ask :meth:`has_fired`
        #: whether the place has been passed, or fill it after all with
        #: :meth:`schedule_reserved`. (The counter's own method: this is
        #: called per frame.)
        self.reserve: Callable[[], int] = itertools.count().__next__
        #: A number from ``reserve()`` that the next push takes instead
        #: of a fresh one (see :meth:`schedule_reserved`).
        self._next_seq: int | None = None
        self.trace = TraceBus()
        self.random = RandomStreams(seed)
        #: Count of events executed so far (for progress reporting/limits).
        self.events_executed = 0
        #: Optional hard cap on executed events; ``run`` raises when hit.
        self.max_events: int | None = None
        # Lifetime queue counters (see ``queue_stats``).
        self._pushes = 0
        self._cancellations = 0
        self._compactions = 0
        self._compacted_entries = 0
        self._peak_heap = 0

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self._push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self._push(time, callback, args, priority)

    def _push(self, time: float, callback: Callable[..., None],
              args: tuple[Any, ...], priority: int) -> Event:
        """Queue ``callback(*args)`` at ``time`` (the one place an event
        is made)."""
        if time != time:  # NaN guard: NaN would corrupt heap ordering.
            raise SimulationError("event time is NaN")
        seq = self._next_seq
        if seq is None:
            seq = self.reserve()
        else:
            self._next_seq = None
        event = [time, priority, seq, callback, args]
        heap = self._heap
        heappush(heap, event)
        self._live += 1
        self._pushes += 1
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return event

    def has_fired(self, time: float, seq: int) -> bool:
        """Whether a ``PRIORITY_NORMAL`` event at ``time`` holding
        reserved place ``seq`` would have run by now — "now" being the
        event that is executing, not merely the clock: at ``time ==
        now`` the answer depends on which of the two the kernel orders
        first. Outside any event, everything at ``now`` has fired after
        ``run(until)``."""
        return [time, PRIORITY_NORMAL, seq] < self._position

    def schedule_reserved(self, time: float, seq: int,
                          callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` at ``time``, in reserved place ``seq``
        (which must not have fired): exactly where it would have run had
        it been scheduled when the place was taken."""
        if self.has_fired(time, seq):
            raise SimulationError(
                f"reserved place ({time}, {seq}) is already in the past")
        self._next_seq = seq
        try:
            # Through the public method, so a subclass that wraps
            # scheduling sees this event like any other.
            return self.schedule_at(time, callback, *args)
        finally:
            self._next_seq = None

    def cancel(self, event: Event | None) -> None:
        """Cancel a pending event. ``None``, a cancelled event and one
        taken to run (both without a callback) are no-ops.

        The entry stays in the heap, skipped when it reaches the top,
        until cancelled entries outnumber live ones in a heap of at
        least :data:`COMPACT_MIN_HEAP`: then one sweep drops them all.
        """
        if event is None or event[CALLBACK] is None:
            return
        event[CALLBACK] = None
        self._live -= 1
        self._cancellations += 1
        heap = self._heap
        before = len(heap)
        if before >= COMPACT_MIN_HEAP and before - self._live > self._live:
            heap[:] = [entry for entry in heap if entry[CALLBACK] is not None]
            heapify(heap)
            self._compactions += 1
            self._compacted_entries += before - len(heap)

    def run(self, until: float | None = None) -> float:
        """Execute events until the queue drains or the clock passes ``until``.

        Returns the final simulated time. When ``until`` is given, the clock
        is advanced to exactly ``until`` even if the queue drained earlier,
        so back-to-back ``run`` calls compose predictably.
        """
        self._drain(until)
        if until is not None and self.now < until:
            self.now = until
        if not self._stopped:
            self._position = [self.now, _AFTER_ALL]
        return self.now

    def run_until(self, done, deadline: float, step_s: float) -> bool:
        """Run in ``step_s`` slices until ``done()`` holds or the clock
        reaches ``deadline``; returns whether ``done()`` held.

        The drive loop of every "run until converged / finished" method:
        ``done`` is asked between slices, so the clock stops on the
        slice boundary after the one it became true in. Each slice is a
        plain :meth:`run` call.
        """
        while self.now < deadline:
            if done():
                return True
            self.run(until=min(self.now + step_s, deadline))
        return done()

    def step(self) -> bool:
        """Execute exactly one event, under :meth:`run`'s rules (not
        from inside an event; the event over ``max_events`` raises and
        stays queued). Returns ``False`` if the queue is empty."""
        return self._drain(None, limit=1) == 1

    def _drain(self, bound: float | None, limit: float = _INF) -> int:
        """Execute events in order up to and including ``bound`` (all of
        them when it is ``None``), at most ``limit`` of them. Returns how
        many ran.

        The one place an event is taken: per event, one look at the
        head, one ``heappop`` and the live count (the executed count is
        added once, at the end). A taken event loses its callback, as a
        cancelled one does. The cap — ``limit`` or what ``max_events``
        leaves, whichever is smaller — is checked before an event is
        taken: the one that trips it stays queued for a later run.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap  # mutated in place only, see __init__
        if bound is None:
            bound = _INF
        cap = self.max_events
        room = _INF if cap is None else cap - self.events_executed
        last = min(room, limit)
        taken = 0
        try:
            while heap and not self._stopped:
                event = heap[0]
                time, _, _, callback, args = event
                if callback is None:
                    heappop(heap)
                    continue
                if time > bound:
                    break
                if taken >= last:
                    if taken < limit:
                        raise SimulationError(f"exceeded max_events={cap}")
                    break
                heappop(heap)
                event[CALLBACK] = None
                self._live -= 1
                taken += 1
                self.now = time
                self._position = event
                callback(*args)
        finally:
            self.events_executed += taken
            self._running = False
        return taken

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current event."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return self._live

    def queue_stats(self) -> dict[str, int]:
        """Lifetime event-queue counters plus the current heap occupancy
        — the kernel half of the fast-path telemetry. ``pops`` counts
        events taken to run, so it equals ``events_executed``."""
        return {
            "pushes": self._pushes,
            "pops": self.events_executed,
            "cancellations": self._cancellations,
            "compactions": self._compactions,
            "compacted_entries": self._compacted_entries,
            "peak_heap": self._peak_heap,
            "heap_size": len(self._heap),
            "live": self._live,
        }
