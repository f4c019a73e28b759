"""Determinism gate: the sharded kernel is oracle-equivalent to the
single-process kernel.

These are the tests the parallel kernel's whole value rests on. For the
same :class:`~repro.sim.parallel.ParallelRunSpec`, a sharded run (any
worker count, thread or process backend) must produce *exactly* the
same deliveries — ``(time, seq)`` tuples per flow — the same per-link
byte/frame/drop totals, and zero invariant violations, as one
single-process ``run(until)``. With mid-run faults the reconvergence
frames travel hop-by-hop and may interleave differently, so the fault
variant relaxes to delivered-seq-sets while keeping byte totals and
drop counts exact.
"""

import pytest

from repro.portland.config import PortlandConfig
from repro.portland.ops import FaultOp
from repro.sim.parallel import (
    ParallelRunSpec,
    diff_results,
    run_sharded,
    run_single,
)
from repro.workloads.partition import PodWorkloadSpec


def _assert_equivalent(spec: ParallelRunSpec, workers: int,
                       exact_times: bool = True) -> None:
    reference = run_sharded(spec, workers=workers, backend="thread")
    single = run_single(spec)
    diffs = diff_results(single, reference, exact_times=exact_times)
    assert diffs == [], f"sharded != single: {diffs[:8]}"
    assert single.violations == []
    assert reference.violations == []
    assert single.delivered > 0


@pytest.mark.parallel
def test_k4_two_workers_exact_equivalence():
    _assert_equivalent(
        ParallelRunSpec(k=4, hosts_per_edge=1, seed=31, duration_s=0.15,
                        workload=PodWorkloadSpec(kind="stride")),
        workers=2)


@pytest.mark.parallel
def test_k4_all_to_all_exact_equivalence():
    _assert_equivalent(
        ParallelRunSpec(k=4, hosts_per_edge=1, seed=37, duration_s=0.1,
                        workload=PodWorkloadSpec(kind="all_to_all",
                                                 rate_pps=100.0)),
        workers=3)


@pytest.mark.parallel
@pytest.mark.slow
def test_k8_three_workers_exact_equivalence():
    _assert_equivalent(
        ParallelRunSpec(k=8, hosts_per_edge=1, seed=41, duration_s=0.1,
                        workload=PodWorkloadSpec(kind="stride")),
        workers=3)


@pytest.mark.parallel
def test_k4_permutation_workload_equivalence():
    """The permutation matrix is drawn from a simulator RNG stream —
    identical in every replica by construction."""
    _assert_equivalent(
        ParallelRunSpec(k=4, hosts_per_edge=1, seed=43, duration_s=0.1,
                        workload=PodWorkloadSpec(kind="permutation")),
        workers=2)


@pytest.mark.parallel
def test_fault_injection_equivalence():
    """A link fails and recovers mid-window: every shard must apply the
    op at the same virtual instant, and the merged seq-sets, byte
    totals, and drop counts must match the reference exactly."""
    spec = ParallelRunSpec(
        k=4, hosts_per_edge=1, seed=47, duration_s=0.3,
        workload=PodWorkloadSpec(kind="stride"),
        faults=(FaultOp(0.08, "fail", "edge-p0-s0", "agg-p0-s0"),
                FaultOp(0.18, "recover", "edge-p0-s0", "agg-p0-s0")))
    reference = run_sharded(spec, workers=2, backend="thread")
    single = run_single(spec)
    diffs = diff_results(single, reference, exact_times=False)
    assert diffs == [], f"fault run diverged: {diffs[:8]}"
    assert single.drops_total == reference.drops_total
    assert single.drops_total > 0             # the fault actually bit
    assert reference.violations == []


@pytest.mark.parallel
def test_fluid_mode_equivalence():
    """Demand-limited fluid flows shard exactly: same byte totals, FCTs
    within float-settlement tolerance, and the engine certifies no
    cross-flow coupling ever occurred (bottleneck_events == 0)."""
    spec = ParallelRunSpec(
        k=4, hosts_per_edge=1, seed=53, duration_s=0.3,
        fabric=PortlandConfig(flow_mode=True, path_cache_entries=4096),
        workload=PodWorkloadSpec(kind="fluid_stride", demand_bps=20e6,
                                 size_bytes=100_000))
    reference = run_sharded(spec, workers=2, backend="thread")
    single = run_single(spec)
    diffs = diff_results(single, reference)
    assert diffs == [], f"fluid run diverged: {diffs[:8]}"
    assert len(single.fcts) == len(single.sent) > 0   # all completed
    assert single.flow_stats.get("bottleneck_events", 0) == 0
    assert reference.flow_stats.get("bottleneck_events", 0) == 0


@pytest.mark.parallel
def test_worker_count_does_not_matter():
    """1, 2, and 4 workers all merge to the same fabric-wide view."""
    spec = ParallelRunSpec(k=4, hosts_per_edge=1, seed=59, duration_s=0.1,
                           workload=PodWorkloadSpec(kind="stride"))
    baseline = run_sharded(spec, workers=1, backend="thread")
    for workers in (2, 4):
        other = run_sharded(spec, workers=workers, backend="thread")
        assert diff_results(baseline, other) == []
