"""Host time that a busy machine cannot stretch.

The reference machine is a shared guest. For minutes at a time it runs
everything 20-150 % slow, in bursts of milliseconds or as a whole, and
the median of whole repeats drifts with it: ten runs of one commit
spread further than any bound worth gating on. What the noise cannot do
is slow the simulator without slowing every other piece of Python by
about as much. So the ledger runs a fixed calibration loop in between
the work, every 10 ms or so, and reports a phase's host time in
*reference seconds*: the seconds the work took, times the reference
duration of the loop over the mean duration it had during that phase.
On a quiet reference machine a reference second is a second; on a busy
one the ratio holds to 2-3 % where the raw seconds move by 20 and more.

The simulator gives no hook between events, so :class:`PacedSimulator`
advances ``run(until)`` in slices of simulated time and looks at the
clock after each.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from time import perf_counter

from repro.sim.simulator import Simulator

#: What one calibration unit takes on the reference machine when nothing
#: else runs (2-vCPU Firecracker guest, 2.1 GHz x86-64, Python 3.11.7).
REFERENCE_UNIT_S = 0.00045
#: Host seconds of work between calibration units: about 5 % overhead.
CALIBRATE_EVERY_S = 0.010
#: Units run back to back where a phase begins and where it ends.
BOUNDARY_UNITS = 10
#: Cells in the ring the calibration unit walks: about 130 KB, in cache
#: like the part of a fabric the simulator touches from event to event.
RING_CELLS = 512


class HostClock:
    """Times the phases of one repeat and the calibration units in them."""

    def __init__(self) -> None:
        #: phase name -> {"seconds", "reference_s"}
        self.phases: dict[str, dict] = {}
        #: ``perf_counter()`` when the last calibration unit ended.
        self.last = 0.0
        self._units: list[float] = []
        order = list(range(RING_CELLS))
        random.Random(0).shuffle(order)
        successor = dict(zip(order, order[1:] + order[:1]))
        self._ring = [{"visits": 0, "next": successor[cell]}
                      for cell in range(RING_CELLS)]
        self._at = 0

    def _unit(self) -> None:
        """A fixed piece of interpreter-bound work on the simulator's own
        diet, half of it arithmetic through a small table, half a walk
        from object to object. Measured against the simulator over hours
        of this machine's noise, either half alone follows it less well:
        the table slows down less than the simulator does, a walk through
        more memory than the caches hold slows down twice as much."""
        table: dict = {}
        for i in range(2000):
            table[i % 1000] = table.get(i % 1000, 0) + i
        ring, at = self._ring, self._at
        for _ in range(2500):
            cell = ring[at]
            cell["visits"] += 1
            at = cell["next"]
        self._at = at

    def calibrate(self, units: int = 1) -> None:
        for _ in range(units):
            start = perf_counter()
            self._unit()
            self.last = perf_counter()
            self._units.append(self.last - start)

    @contextmanager
    def phase(self, name: str):
        """Time the body as phase ``name``: its own seconds (calibration
        units inside it taken out) and, from the units run before, inside
        and after it, its reference seconds."""
        self._units = []
        self.calibrate(BOUNDARY_UNITS)
        before = sum(self._units)
        start = perf_counter()
        yield
        seconds = perf_counter() - start - (sum(self._units) - before)
        self.calibrate(BOUNDARY_UNITS)
        unit_s = sum(self._units) / len(self._units)
        self.phases[name] = {
            "seconds": seconds,
            "reference_s": seconds * REFERENCE_UNIT_S / unit_s}

    def speed(self) -> float:
        """Reference seconds per measured second over every phase so far:
        1.0 on a quiet reference machine, lower on a busy or slower one."""
        phases = self.phases.values()
        return (sum(p["reference_s"] for p in phases)
                / sum(p["seconds"] for p in phases))


class PacedSimulator(Simulator):
    """A simulator whose ``run(until)`` advances ``slice_s`` simulated
    seconds at a time and lets ``clock`` calibrate in between.

    Back-to-back ``Simulator.run`` calls compose, so the events and their
    order are those of one call. (``stop()`` would end only the current
    slice; nothing the ledger runs calls it.)
    """

    def __init__(self, seed: int, clock: HostClock, slice_s: float) -> None:
        super().__init__(seed=seed)
        self.clock = clock
        self.slice_s = slice_s

    def run(self, until: float | None = None) -> float:
        run = super().run
        if until is None:
            return run()
        clock = self.clock
        now = self.now
        while True:
            now = run(until=min(now + self.slice_s, until))
            if perf_counter() - clock.last > CALIBRATE_EVERY_S:
                clock.calibrate()
            if now >= until:
                return now
