"""``max_min_allocate`` against the allocator it replaced, bit for bit.

The engine's allocator fills in bottleneck order from counts and a
link → flows index built once; ``reference_allocator`` is the earlier
formulation that rebuilt the counts and rescanned every unfrozen flow
in every round. Both run the same sequence of float operations, so
Hypothesis holds them to ``==`` — on the returned rates and on the
``remaining`` dict each mutates — over demands with ``0.0`` and
``inf``, segment lists that are empty, shared or repeat an id, zero
capacities, ``active`` subsets and strict-priority class rows.
"""

import math
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows import engine
from repro.flows.engine import FlowEngine, max_min_allocate
from tests.flows import reference_allocator

LINK_IDS = list(range(6))

capacity = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e10, allow_nan=False,
              allow_infinity=False),
    st.sampled_from((1e9, 1e-3, 5e-4)))
demand = st.one_of(
    st.just(0.0), st.just(math.inf),
    st.floats(min_value=0.0, max_value=2e9, allow_nan=False,
              allow_infinity=False),
    st.sampled_from((1e6, 2.5e8, 1e9)))


@st.composite
def problems(draw, max_flows=8):
    """(capacities, demands, segment lists, active subset or None)."""
    capacities = {pid: draw(capacity) for pid in LINK_IDS}
    n_flows = draw(st.integers(min_value=0, max_value=max_flows))
    demands = [draw(demand) for _ in range(n_flows)]
    segs_of = [draw(st.lists(st.sampled_from(LINK_IDS), max_size=4))
               for _ in range(n_flows)]
    active = draw(st.one_of(
        st.none(), st.sets(st.integers(min_value=0,
                                       max_value=max(n_flows - 1, 0)))
        .map(lambda chosen: {i for i in chosen if i < n_flows})))
    return capacities, demands, segs_of, active


def _both(capacities, demands, segs_of, active):
    """(rates, remaining) of the engine's allocator, then the
    reference's, each on its own copy of ``capacities``."""
    left, right = dict(capacities), dict(capacities)
    return (max_min_allocate(demands, segs_of, left, active=active), left,
            reference_allocator.max_min_allocate(demands, segs_of, right,
                                                 active=active), right)


@given(st.one_of(problems(max_flows=1), problems()))
@settings(max_examples=900, deadline=None)
def test_rates_and_remainders_equal_the_reference(problem):
    """One-flow problems (answered in one pass unless a segment id
    repeats) are drawn as often as larger ones."""
    capacities, demands, segs_of, active = problem
    rates, left, want, right = _both(capacities, demands, segs_of, active)
    assert rates == want
    assert left == right


@given(problems(), st.data())
@settings(max_examples=300, deadline=None)
def test_class_rows_equal_the_reference(problem, data):
    """Strict-priority rows: each class fills what the ones above left,
    so later fills start from remainders at or below the slack."""
    capacities, demands, segs_of, _active = problem
    routed = [SimpleNamespace(tclass=data.draw(st.integers(0, 2)))
              for _ in demands]
    alive = data.draw(st.sets(st.sampled_from(range(len(demands))))
                      if demands else st.just(set()))

    def by_class(remaining):
        return FlowEngine._allocate_by_class(None, routed, demands, segs_of,
                                             remaining, alive)

    left, right = dict(capacities), dict(capacities)
    rates = by_class(left)
    with mock.patch.object(engine, "max_min_allocate",
                           reference_allocator.max_min_allocate):
        want = by_class(right)
    assert rates == want
    assert left == right
