"""Unit and property tests for the statistics primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import (
    RateMeter,
    TimeSeries,
    percentile,
    summarize,
)


def test_time_series_records_in_order():
    ts = TimeSeries("t")
    for t, v in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]:
        ts.record(t, v)
    assert ts.times == [0.0, 1.0, 2.0]
    assert ts.values == [1.0, 2.0, 3.0]
    assert len(ts) == 3


def test_time_series_rejects_time_travel():
    ts = TimeSeries()
    ts.record(1.0, 0.0)
    with pytest.raises(ValueError):
        ts.record(0.5, 0.0)


def test_rate_meter_bins_and_zero_gaps():
    meter = RateMeter(1.0)
    meter.record(0.5, nbytes=100)
    meter.record(2.5, nbytes=300)
    series = dict(meter.series(0.0, 3.0))
    assert series[0.0] == 1.0
    assert series[1.0] == 0.0  # the outage bin is visible
    assert series[2.0] == 1.0
    byte_series = dict(meter.series(0.0, 3.0, bytes_per_sec=True))
    assert byte_series[2.0] == 300.0
    assert meter.total() == 2
    assert meter.total_bytes() == 400


def test_rate_meter_rejects_bad_bin():
    with pytest.raises(ValueError):
        RateMeter(0.0)


def test_percentile_interpolates():
    samples = [0.0, 10.0]
    assert percentile(samples, 0.5) == 5.0
    assert percentile(samples, 0.0) == 0.0
    assert percentile(samples, 1.0) == 10.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_handles_unsorted_input():
    # Regression: percentile() used to index straight into the caller's
    # list, silently returning garbage unless it happened to be sorted.
    unsorted = [9.0, 1.0, 5.0, 3.0, 7.0]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert percentile(unsorted, frac) == percentile(sorted(unsorted), frac)
    assert percentile([30.0, 10.0], 0.5) == 20.0
    # The caller's list is not mutated.
    assert unsorted == [9.0, 1.0, 5.0, 3.0, 7.0]


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                min_size=1, max_size=100),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_order_invariant(samples, frac):
    assert percentile(samples, frac) == percentile(sorted(samples), frac)


def test_summarize_basics():
    stats = summarize([3.0, 1.0, 2.0])
    assert stats.count == 3
    assert stats.minimum == 1.0
    assert stats.maximum == 3.0
    assert stats.mean == pytest.approx(2.0)
    assert stats.p50 == 2.0


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), min_size=1, max_size=200))
def test_percentile_bounded_by_extremes(samples):
    ordered = sorted(samples)
    for frac in (0.0, 0.25, 0.5, 0.9, 1.0):
        p = percentile(ordered, frac)
        assert ordered[0] <= p <= ordered[-1]


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=100))
def test_summarize_invariants(samples):
    stats = summarize(samples)
    assert stats.minimum <= stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum
    assert stats.minimum <= stats.mean <= stats.maximum
