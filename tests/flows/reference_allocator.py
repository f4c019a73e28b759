"""The progressive-filling allocator as it stood before bottleneck-ordered
filling: every round rebuilds the per-link counts of the unfrozen flows
and rescans each one's segments for what froze.

Kept verbatim (only this docstring is new) as the reference
``tests/flows/test_allocator_differential.py`` holds
:func:`repro.flows.engine.max_min_allocate` to, bit for bit. No code
under ``src/`` imports it.
"""

import math

from repro.flows.engine import _EPS_BPS


def max_min_allocate(demands: list[float], segs_of: list[list[int]],
                     remaining: dict[int, float],
                     active: set[int] | None = None) -> list[float]:
    """Progressive-filling max-min allocation.

    ``demands[i]`` is flow *i*'s rate ceiling (``inf`` for greedy),
    ``segs_of[i]`` the constrained directed-link ids it occupies, and
    ``remaining`` the spare capacity per directed link id — mutated in
    place so the caller can read post-allocation headroom. ``active``
    restricts which flows participate (others get 0). Returns the
    per-flow rates.

    Invariants (property-tested in ``tests/flows/test_refill_properties``):
    every rate ≤ its demand; per-link allocations sum to ≤ the link's
    starting capacity; and removing a flow improves the survivors in
    the *leximin* order — the sorted survivor rate vector never drops
    lexicographically (per-flow monotonicity is genuinely false for
    multi-link max-min: freeing one link can let a neighbor grow and
    squeeze a third flow elsewhere).
    """
    rates = [0.0] * len(demands)
    unfrozen = (set(range(len(demands))) if active is None
                else set(active))
    for _round in range(len(demands) + 1):
        if not unfrozen:
            break
        members: dict[int, int] = {}
        for i in unfrozen:
            for pid in segs_of[i]:
                members[pid] = members.get(pid, 0) + 1
        delta = min(demands[i] - rates[i] for i in unfrozen)
        for pid, count in members.items():
            share = remaining[pid] / count
            if share < delta:
                delta = share
        if delta > 0 and not math.isinf(delta):
            for i in unfrozen:
                rates[i] += delta
            for pid, count in members.items():
                remaining[pid] -= delta * count
        frozen = {
            i for i in unfrozen
            if rates[i] >= demands[i] - _EPS_BPS
            or any(remaining[pid] <= _EPS_BPS for pid in segs_of[i])
        }
        if not frozen:
            break
        unfrozen -= frozen
    return rates
