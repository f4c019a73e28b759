"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock, the pending-event queue, the
trace bus, and the deterministic random streams. Every other object in
this library (links, hosts, switches, the fabric manager) holds a
reference to one simulator and schedules its behaviour through it.

Typical driver loop::

    sim = Simulator(seed=1)
    ...build topology, hosts, agents...
    sim.run(until=10.0)          # simulated seconds
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import CALLBACK, PRIORITY_NORMAL, Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceBus

# Priorities no event has: they close ``Simulator._position`` off below
# or above every event at its instant.
_BEFORE_ALL = float("-inf")
_AFTER_ALL = float("inf")


class Simulator:
    """Discrete-event simulation kernel with a virtual clock in seconds."""

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time in seconds. A plain attribute because it
        #: is read several times per event; only the kernel writes it.
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        #: How far execution has got in the ``[time, priority, seq]``
        #: order: the event being executed (or, after ``stop()`` /
        #: ``step()``, the last one); after a completed ``run`` /
        #: ``run_before``, a key between what fired and what did not.
        #: Only ever compared with ``<`` (see :meth:`has_fired`).
        self._position: list = [0.0, _BEFORE_ALL]
        #: ``reserve()`` holds the place in the event order that an event
        #: scheduled now would get among others at its instant, without
        #: scheduling one, and returns its number. Ask :meth:`has_fired`
        #: whether the place has been passed, or fill it after all with
        #: :meth:`schedule_reserved`.
        self.reserve: Callable[[], int] = self._queue.reserve
        self._push = self._queue.push
        self.trace = TraceBus()
        self.random = RandomStreams(seed)
        #: Count of events executed so far (for progress reporting/limits).
        self.events_executed = 0
        #: Optional hard cap on executed events; ``run`` raises when hit.
        self.max_events: int | None = None

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

    def has_fired(self, time: float, seq: int) -> bool:
        """Whether a ``PRIORITY_NORMAL`` event at ``time`` holding
        reserved place ``seq`` would have run by now — "now" being the
        event that is executing, not merely the clock: at ``time ==
        now`` the answer depends on which of the two the kernel orders
        first. Outside any event, everything at ``now`` has fired after
        ``run(until)`` and nothing at ``bound`` has after
        ``run_before(bound)``."""
        return [time, PRIORITY_NORMAL, seq] < self._position

    def schedule_reserved(self, time: float, seq: int,
                          callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` at ``time``, in reserved place ``seq``
        (which must not have fired): exactly where it would have run had
        it been scheduled when the place was taken."""
        if self.has_fired(time, seq):
            raise SimulationError(
                f"reserved place ({time}, {seq}) is already in the past")
        self._queue._next_seq = seq
        try:
            # Through the public method, so a subclass that wraps
            # scheduling sees this event like any other.
            return self.schedule_at(time, callback, *args)
        finally:
            self._queue._next_seq = None

    def cancel(self, event: Event | None) -> None:
        """Cancel a pending event. ``None``, a cancelled event and one
        taken to run (both without a callback) are no-ops."""
        if event is None or event[CALLBACK] is None:
            return
        self._queue.cancel(event)

    def run(self, until: float | None = None) -> float:
        """Execute events until the queue drains or the clock passes ``until``.

        Returns the final simulated time. When ``until`` is given, the clock
        is advanced to exactly ``until`` even if the queue drained earlier,
        so back-to-back ``run`` calls compose predictably.
        """
        self._drain(until, inclusive=True)
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

    def run_before(self, bound: float) -> float:
        """Execute every event *strictly before* ``bound``, then advance
        the clock to exactly ``bound``.

        The windowed-execution primitive of the sharded parallel kernel
        (:mod:`repro.sim.parallel`): a shard granted a horizon drains its
        queue up to — but excluding — the horizon, so back-to-back
        ``run_before`` calls partition the timeline into half-open
        windows ``[now, bound)`` and a final inclusive :meth:`run`
        executes exactly the same event set a single ``run(until)``
        would have.
        """
        if bound < self.now:
            raise SimulationError(
                f"cannot run_before({bound}) with clock at {self.now}")
        self._drain(bound, inclusive=False)
        if self.now < bound:
            self.now = bound
        if not self._stopped:
            self._position = [bound, _BEFORE_ALL]
        return self.now

    def _drain(self, bound: float | None, inclusive: bool) -> None:
        """Execute events in order up to ``bound`` (all of them when it
        is ``None``); an event exactly at ``bound`` runs only when
        ``inclusive``.

        One loop straight over the queue's heap: per event, one look at
        the head, one ``heappop`` and the live count (the executed and
        popped counts are added once, at the end) — no per-event method
        calls into the queue. A taken event loses its callback, as a
        cancelled one does. The cap is checked before an event is taken:
        the one that trips it stays queued for a later run.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        self._stopped = False
        queue = self._queue
        heap = queue._heap  # mutated in place only, see EventQueue
        if bound is None:
            bound = float("inf")
        cap = self.max_events
        room = float("inf") if cap is None else cap - self.events_executed
        taken = 0
        try:
            while heap and not self._stopped:
                event = heap[0]
                time, _, _, callback, args = event
                if callback is None:
                    heappop(heap)
                    continue
                if time >= bound and (time > bound or not inclusive):
                    break
                if taken >= room:
                    raise SimulationError(f"exceeded max_events={cap}")
                heappop(heap)
                event[CALLBACK] = None
                queue._live -= 1
                taken += 1
                self.now = time
                self._position = event
                callback(*args)
        finally:
            self.events_executed += taken
            queue.pops += taken
            self._running = False

    def next_event_time(self) -> float | None:
        """Absolute time of the earliest pending event (``None`` if idle).

        The lookahead input of the conservative barrier: peers may not
        be granted a horizon past ``min(next_event_time)`` + window.
        """
        return self._queue.peek_time()

    def step(self) -> bool:
        """Execute exactly one event. Returns ``False`` if the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        time, _, _, callback, args = event
        event[CALLBACK] = None
        self.now = time
        self._position = event
        self.events_executed += 1
        callback(*args)
        return True

    def stop(self) -> None:
        """Ask a running :meth:`run` loop to return after the current event."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    def queue_stats(self) -> dict[str, int]:
        """Event-queue counters (pushes, pops, cancellations, compactions,
        heap occupancy) — the kernel half of the fast-path telemetry."""
        return self._queue.stats()
