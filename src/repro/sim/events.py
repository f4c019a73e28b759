"""Events and the pending-event queue for the discrete-event kernel.

An event is the list ``[time, priority, seq, callback, args]``, its own
heap entry: a push builds one object and runs no Python constructor.
``seq`` is a monotonically increasing tie-breaker so that two events
scheduled for the same instant at the same priority always fire in the
order they were scheduled — this is what makes simulations
reproducible. It is also unique, so list comparison (done in C by
``heapq``) never reaches the callback.

A sequence number can also be taken without an event
(``EventQueue.reserve``): the place in the order is held, and an
event may be pushed into it later — or never, when it turns out nothing
needed to happen there (docs/PERF.md, "One event per uncontended hop").

Cancellation is *lazy*: a cancelled event has its callback cleared and
stays in the heap, skipped when it is popped. This keeps cancellation
O(1), which matters because protocol timers (LDP keepalives, TCP
retransmission timers) are cancelled and re-armed far more often than
they fire.

Lazy cancellation alone lets the heap grow without bound when timers are
re-armed faster than their old entries reach the top (a long TCP run
re-arms its retransmission timer on every ACK). The queue therefore
*compacts* itself — dropping cancelled entries and re-heapifying — once
cancelled entries outnumber live ones and the heap is big enough for the
O(n) sweep to pay for itself. Amortised cost stays O(1) per cancellation:
each compaction removes at least half the heap, paid for by the
cancellations that created those entries.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

#: Default priority for ordinary events.
PRIORITY_NORMAL = 100
#: Priority for events that must run before ordinary ones at the same time
#: (e.g. link-state changes should be visible to packets arriving "now").
PRIORITY_HIGH = 10
#: Priority for bookkeeping that should run after everything else.
PRIORITY_LOW = 1000


#: A scheduled callback: ``[time, priority, seq, callback, args]``,
#: read through the indices below; an opaque handle outside the kernel.
#: ``callback`` is ``None`` once it is cancelled, or taken to run.
Event = list
TIME, PRIORITY, SEQ, CALLBACK, ARGS = range(5)


#: Below this heap size a compaction sweep costs more than it saves.
COMPACT_MIN_HEAP = 64


class EventQueue:
    """Min-heap of events with lazy cancellation."""

    def __init__(self, compact_min_heap: int = COMPACT_MIN_HEAP) -> None:
        #: The queued events, each its own heap entry. Only ever mutated
        #: in place: :meth:`Simulator.run` holds on to the list while
        #: callbacks push, cancel and compact.
        self._heap: list[Event] = []
        self._counter = itertools.count()
        #: ``reserve()`` takes the sequence number a push would take now
        #: and queues nothing: the holder's place among same-instant
        #: events. (The counter's own method: this is called per frame.)
        self.reserve: Callable[[], int] = self._counter.__next__
        #: A number from ``reserve()`` that the next push takes instead
        #: of a fresh one (see :meth:`Simulator.schedule_reserved`).
        self._next_seq: int | None = None
        self._live = 0
        self._compact_min_heap = compact_min_heap

        # Lifetime counters (see ``stats``).
        self.pushes = 0
        self.pops = 0
        self.cancellations = 0
        self.compactions = 0
        self.compacted_entries = 0
        self.peak_heap = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events still queued."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Raw heap length, including not-yet-reclaimed cancelled entries."""
        return len(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Queue ``callback(*args)`` to run at simulated ``time`` (the
        one place an event is made)."""
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
        self.pushes += 1
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)
            if event[CALLBACK] is None:
                continue
            self._live -= 1
            self.pops += 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][CALLBACK] is None:
            heappop(heap)
        if not heap:
            return None
        return heap[0][TIME]

    def cancel(self, event: Event) -> None:
        """Cancel ``event``, which is queued and not cancelled yet: its
        callback is cleared, and the entry is discarded lazily on pop,
        or eagerly by compaction when cancelled entries come to dominate
        the heap."""
        event[CALLBACK] = None
        self._live -= 1
        self.cancellations += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        heap = self._heap
        if len(heap) < self._compact_min_heap:
            return
        dead = len(heap) - self._live
        if dead <= self._live:
            return
        before = len(heap)
        heap[:] = [event for event in heap if event[CALLBACK] is not None]
        heapify(heap)
        self.compactions += 1
        self.compacted_entries += before - len(heap)

    def stats(self) -> dict[str, int]:
        """Lifetime queue counters plus the current heap occupancy."""
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "cancellations": self.cancellations,
            "compactions": self.compactions,
            "compacted_entries": self.compacted_entries,
            "peak_heap": self.peak_heap,
            "heap_size": len(self._heap),
            "live": self._live,
        }

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
