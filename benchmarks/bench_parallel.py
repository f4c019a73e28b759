"""Sharded parallel kernel acceptance benchmark.

One k=16 all-to-all workload (128 hosts, every ordered pair a CBR flow)
run twice: through the single-process reference kernel and through the
sharded kernel (:mod:`repro.sim.parallel`) with process-backed shards.
Two things are gated, and determinism always comes first:

* **equivalence** — the sharded run must be oracle-equivalent to the
  single-process run: identical ``(time, seq)`` delivery tuples per
  flow, identical per-link byte/frame/drop totals. A fast wrong kernel
  is worthless, so this asserts before any timing gate.
* **performance** — one worker per CPU, at most 4: >= 2x wall-clock
  speedup at 4 workers, >= 1.4x at 2 or 3. On a 1-core box a 1-worker
  sharded run must stay within 1.3x of the single-process wall — the
  protocol overhead bound that makes the speedup claim credible where
  it can't be measured directly.

Writes ``BENCH_parallel.json`` (common schema; ``ratio`` is the
measured single/sharded wall ratio, i.e. speedup, on either path).
"""

import multiprocessing

from common import bench_payload, print_header, run_once, save_results, \
    write_bench_json

from repro.sim.parallel import (
    ParallelRunSpec,
    diff_results,
    run_sharded,
    run_single,
)
from repro.workloads.partition import PodWorkloadSpec

K = 16
DURATION_S = 0.05
RATE_PPS = 100.0
MAX_WORKERS = 4
#: Speedup floor by worker count.
SPEEDUP_GATES = {2: 1.4, 3: 1.4, 4: 2.0}
OVERHEAD_GATE = 1.3      # 1-CPU fallback, 1 worker


def _spec() -> ParallelRunSpec:
    return ParallelRunSpec(
        k=K, hosts_per_edge=1, seed=401, duration_s=DURATION_S,
        workload=PodWorkloadSpec(kind="all_to_all", rate_pps=RATE_PPS,
                                 stagger_s=0.0),
        # The invariant oracle is exercised by the tier-1 equivalence
        # tests; here it would only tax both kernels equally.
        check_invariants=False)


def test_parallel_kernel(benchmark):
    cpus = multiprocessing.cpu_count()
    workers = min(cpus, MAX_WORKERS)
    gate = SPEEDUP_GATES.get(workers)

    def run():
        spec = _spec()
        single = run_single(spec)
        sharded = run_sharded(spec, workers=workers, backend="process")
        return single, sharded

    single, sharded = run_once(benchmark, run)

    # Determinism before speed: the merged sharded view must match the
    # reference exactly.
    diffs = diff_results(single, sharded)
    assert diffs == [], f"sharded run diverged from reference: {diffs[:5]}"
    assert single.delivered > 0

    speedup = single.wall_s / max(1e-9, sharded.wall_s)
    print_header(
        f"PARALLEL - k={K} all-to-all, {len(single.sent):,} flows, "
        f"{single.events_total:,} events: single {single.wall_s:.2f}s vs "
        f"sharded[{workers}w+fm] {sharded.wall_s:.2f}s "
        f"({speedup:.2f}x, {sharded.rounds} windows, {cpus} CPUs)")
    print(f"delivered {single.delivered:,} frames identically; "
          f"shard events {sharded.shard_events}")

    payload = bench_payload(
        "parallel",
        ratio=speedup,
        events=single.events_total,
        wall_s=sharded.wall_s,
        config={"k": K, "duration_s": DURATION_S, "rate_pps": RATE_PPS,
                "workers": workers, "backend": "process",
                "cpu_count": cpus,
                "gate": (f"speedup >= {gate}" if gate
                         else f"overhead <= {OVERHEAD_GATE}x")},
        single_wall_s=single.wall_s,
        rounds=sharded.rounds,
        delivered=single.delivered,
        shard_events=list(sharded.shard_events))
    save_results("bench_parallel", payload)
    write_bench_json("parallel", payload)

    if gate:
        assert speedup >= gate, (
            f"sharded speedup {speedup:.2f}x below the "
            f"{gate}x floor with {workers} workers")
    else:
        assert sharded.wall_s <= OVERHEAD_GATE * single.wall_s, (
            f"1-worker sharded overhead {sharded.wall_s / single.wall_s:.2f}x "
            f"exceeds the {OVERHEAD_GATE}x bound")
