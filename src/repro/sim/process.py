"""Reusable timer abstractions built on the event queue.

Protocol code is dominated by two patterns: one-shot *watchdog* timers
that are constantly re-armed (TCP retransmission, LDP liveness) and
*periodic* tasks (LDM beacons, stats sampling). These classes wrap the
raw event API so protocol modules never juggle `Event` handles directly.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import PRIORITY_NORMAL, TIME, Event
from repro.sim.simulator import Simulator


class Timer:
    """A restartable one-shot timer.

    ``start`` arms (or re-arms) the timer; ``stop`` disarms it. The
    callback fires at most once per arming.

    Re-arming is *slotted*: the timer tracks its logical ``_deadline``
    separately from the heap entry backing it. Pushing the deadline
    further out (the overwhelmingly common case — a TCP retransmission
    timer re-armed on every ACK, LDP liveness refreshed on every beacon)
    reuses the pending event: when that event fires before the current
    deadline it simply re-schedules itself at the deadline instead of
    running the callback. Only a re-arm to an *earlier* instant pays for
    a cancel + fresh push, so a busy flow contributes O(1) live heap
    entries instead of one cancelled entry per ACK.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._priority = priority
        self._event: Event | None = None
        self._deadline: float | None = None

    @property
    def armed(self) -> bool:
        """Whether the timer is currently pending."""
        return self._deadline is not None

    @property
    def expires_at(self) -> float | None:
        """Absolute expiry time, or ``None`` when disarmed."""
        return self._deadline

    def start(self, delay: float) -> None:
        """Arm the timer to fire after ``delay`` seconds, replacing any
        earlier arming."""
        deadline = self._sim.now + delay
        if self._event is not None:
            if self._event[TIME] <= deadline:
                # Deadline stayed put or moved out: keep the heap entry;
                # _fire defers itself to the deadline when it pops early.
                self._deadline = deadline
                return
            self._sim.cancel(self._event)
        self._deadline = deadline
        self._event = self._sim.schedule(
            delay, self._fire, priority=self._priority
        )

    def stop(self) -> None:
        """Disarm the timer if armed."""
        self._deadline = None
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        deadline = self._deadline
        if deadline is None:
            return
        if deadline > self._sim.now:
            # The arming this event was pushed for has been superseded by
            # a later deadline: slide forward instead of firing.
            self._event = self._sim.schedule_at(
                deadline, self._fire, priority=self._priority
            )
            return
        self._deadline = None
        self._callback(*self._args)


class PeriodicTask:
    """Calls a function every ``period`` seconds until stopped.

    An optional per-tick ``jitter`` fraction desynchronizes beacons that
    would otherwise fire in lock-step across thousands of switches (the
    same reason real protocols jitter their hello timers).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[..., None],
        *args: Any,
        jitter: float = 0.0,
        rng_name: str = "periodic",
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self._sim = sim
        self.period = period
        self._callback = callback
        self._args = args
        self._jitter = jitter
        self._rng = sim.random.stream(rng_name)
        self._priority = priority
        self._event: Event | None = None
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the task is currently scheduled to keep firing."""
        return self._running

    @property
    def next_at(self) -> float | None:
        """Simulated time of the next tick (None when stopped)."""
        return self._event[TIME] if self._running else None

    def start(self, first_delay: float | None = None) -> None:
        """Begin firing; first tick after ``first_delay`` (default: one
        jittered period)."""
        if self._running:
            return
        self._running = True
        delay = self._next_delay() if first_delay is None else first_delay
        self._event = self._sim.schedule(delay, self._tick, priority=self._priority)

    def stop(self) -> None:
        """Stop firing. The task may be started again later."""
        self._running = False
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

    def _next_delay(self) -> float:
        if self._jitter == 0.0:
            return self.period
        # Uniform in [period*(1-jitter), period*(1+jitter)]: what
        # ``uniform(-spread, spread)`` computes, without its call.
        spread = self.period * self._jitter
        return self.period + (-spread + (spread + spread) * self._rng.random())

    def _tick(self) -> None:
        if not self._running:
            return
        self._event = self._sim.schedule(
            self._next_delay(), self._tick, priority=self._priority
        )
        self._callback(*self._args)
