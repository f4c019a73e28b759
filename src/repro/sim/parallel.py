"""Sharded parallel simulation kernel: per-pod event loops with a
conservative lookahead barrier.

PortLand's fat tree decomposes into pods that interact only through the
core, and — once the compiled-path cache is warm — data-plane flows
interact only through counters, not through each other's queues (cut-
through launches never contend; see ``docs/PERF.md``). The sharded
kernel exploits both facts:

* **Replicated fabric, partitioned workload.** Every shard builds the
  *same* fabric from the same seed and converges it identically (LDP,
  registration, FM state — all control behaviour is a deterministic
  function of the seed). What is partitioned is the workload: each
  source pod's flows are owned by exactly one shard, which creates and
  runs their senders; shard 0 owns no pods and stands for the fabric
  manager's control plane (its replica executes *only* control events,
  which is what lets the merge subtract control-plane counter charges
  that every replica re-executed).

* **Conservative windows.** A coordinator repeatedly grants every shard
  the same execution horizon ``min(next pending event across shards,
  next control op) + window`` (``window >= core-link lookahead``) and
  shards drain events strictly below it (:meth:`Simulator.run_before`).
  Control operations (fault injections) travel inside the grant as
  timestamped :class:`~repro.portland.ops.FaultOp` messages and are
  applied by every shard at the same virtual instant — the barrier is
  what guarantees no shard has run past an op before receiving it. The
  final window runs inclusively to ``until``, so the union of windows
  executes exactly the event set a single ``run(until)`` would.

* **Merge.** Deliveries, drops, and per-link byte totals partition by
  flow ownership, so the merged data plane is the disjoint union of the
  shards'. Control-plane charges are identical in every replica, so the
  merged counter for a link is ``delta_fm + sum(delta_s - delta_fm)``
  over workload shards. Trace records are merged by subtracting the FM
  shard's record multiset from each workload shard (removing the
  replicated control records) and sorting by timestamp.

The determinism contract — a sharded run is oracle-equivalent to the
single-process kernel on the same seed (same delivery tuples, drops,
per-link byte totals, zero invariant violations) — is enforced by
``tests/verify/test_parallel_equivalence.py`` and re-checked by
``benchmarks/bench_parallel.py`` on every benchmark run.
"""

from __future__ import annotations

import multiprocessing
import threading
import time as _time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from queue import SimpleQueue

from repro.errors import SimulationError
from repro.portland.config import PortlandConfig
from repro.portland.ops import FaultOp, apply_fault_op
from repro.sim.events import PRIORITY_HIGH
from repro.sim.stats import aggregate_counters

#: Core-link propagation delay — the physically guaranteed lookahead
#: (``repro.net.link.DEFAULT_DELAY_S``, every data link's delay).
DEFAULT_LOOKAHEAD_S = 1e-6

#: Default grant width. Replicas only exchange *control* messages, so
#: windows may batch far beyond the physical lookahead; the window is a
#: synchronization-overhead knob, bounded below by the lookahead.
DEFAULT_WINDOW_S = 0.025


# ----------------------------------------------------------------------
# Run specification


@dataclass(frozen=True)
class ParallelRunSpec:
    """Everything a shard needs to rebuild its replica — plain data,
    picklable, and the complete determinism input."""

    k: int = 4
    hosts_per_edge: int = 1
    seed: int = 1
    #: Measurement window in simulated seconds (after convergence).
    duration_s: float = 0.5
    #: Workload spec (see :mod:`repro.workloads.partition`).
    workload: "PodWorkloadSpec | None" = None
    #: Control schedule; ``FaultOp.time`` is relative to window start.
    faults: tuple[FaultOp, ...] = ()
    #: Shape of every replica's fabric (compiled paths on by default:
    #: the determinism argument above rests on cut-through launches).
    fabric: PortlandConfig = field(
        default_factory=lambda: PortlandConfig(path_cache_entries=4096))
    carrier_detect: bool = True
    lookahead_s: float = DEFAULT_LOOKAHEAD_S
    window_s: float = DEFAULT_WINDOW_S
    #: Attach the runtime invariant oracle to every shard.
    check_invariants: bool = True
    #: Trace categories each shard records for the merged trace
    #: (empty = no trace collection; hop records can be millions).
    trace_categories: tuple[str, ...] = ()

    def resolved_workload(self) -> "PodWorkloadSpec":
        from repro.workloads.partition import PodWorkloadSpec

        return self.workload if self.workload is not None else PodWorkloadSpec()


@dataclass(frozen=True)
class ShardPlan:
    """Pod ownership per shard. Shard 0 is the FM/control shard and owns
    no pods; pods are dealt round-robin over shards ``1..workers``."""

    assignments: tuple[tuple[int, ...], ...]

    @property
    def num_shards(self) -> int:
        return len(self.assignments)

    @staticmethod
    def for_pods(num_pods: int, workers: int) -> "ShardPlan":
        workers = max(1, min(workers, num_pods))
        owned: list[list[int]] = [[] for _ in range(workers)]
        for pod in range(num_pods):
            owned[pod % workers].append(pod)
        return ShardPlan(((),) + tuple(tuple(pods) for pods in owned))


@dataclass(frozen=True)
class _Grant:
    """Coordinator -> shard: run to ``horizon`` (exclusive, or inclusive
    when ``final``), applying ``ops`` (absolute times) first."""

    horizon: float
    final: bool
    ops: tuple[FaultOp, ...]


@dataclass
class ShardResult:
    """Plain-data outcome of one shard, picklable across processes."""

    shard_id: int
    owned_pods: tuple[int, ...]
    start_time: float
    end_time: float
    rounds: int
    events: int
    arrivals: dict
    sent: dict
    fcts: dict
    link_bytes: dict
    link_frames: dict
    link_drops: dict
    queue_stats: dict
    path_stats: dict
    flow_stats: dict
    path_signature: str
    violations: list
    trace: list


@dataclass
class ParallelResult:
    """Merged view of a run — identical shape for sharded and
    single-process kernels, so equivalence is a field-wise diff."""

    workers: int
    backend: str
    start_time: float
    end_time: float
    wall_s: float
    rounds: int
    events_total: int
    arrivals: dict
    sent: dict
    fcts: dict
    link_bytes: dict
    link_frames: dict
    link_drops: dict
    violations: list
    trace: list
    queue_stats: dict
    path_stats: dict
    flow_stats: dict
    path_signatures: tuple = ()
    shard_events: tuple = ()

    @property
    def delivered(self) -> int:
        return sum(len(log) for log in self.arrivals.values())

    @property
    def drops_total(self) -> int:
        return sum(self.link_drops.values())


# ----------------------------------------------------------------------
# Shard harness (runs inside the worker thread/process)


def _plain(value):
    """Best-effort primitive rendering for cross-process payloads."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    return str(value)


class _ShardHarness:
    """One replica: build, converge, own a pod subset, run windows."""

    def __init__(self, spec: ParallelRunSpec, shard_id: int,
                 owned_pods: tuple[int, ...]) -> None:
        self.spec = spec
        self.shard_id = shard_id
        self.owned_pods = tuple(owned_pods)
        self.rounds = 0
        self._trace_records: list[dict] = []

    def setup(self) -> None:
        from repro.topology.builder import LinkParams, build_portland_fabric
        from repro.topology.fattree import build_fat_tree
        from repro.verify.oracle import InvariantOracle
        from repro.workloads.partition import PodWorkload

        spec = self.spec
        self.sim = sim = _new_simulator(spec.seed)
        tree = build_fat_tree(spec.k, hosts_per_edge=spec.hosts_per_edge)
        self.fabric = fabric = build_portland_fabric(
            sim, tree=tree, config=spec.fabric,
            link_params=LinkParams(carrier_detect=spec.carrier_detect))
        fabric.bring_up()
        self.start_time = sim.now
        self.oracle = (InvariantOracle(fabric)
                       if spec.check_invariants else None)
        for category in spec.trace_categories:
            sim.trace.subscribe(category, self._record_trace)
        self.workload = PodWorkload(fabric, spec.resolved_workload(),
                                    self.owned_pods)
        self._baseline = _usage_snapshot(fabric.links)
        self._baseline_drops = _drops_snapshot(fabric.links)
        self._events0 = sim.events_executed
        self.workload.start()

    def _record_trace(self, record) -> None:
        self._trace_records.append({
            "time": record.time,
            "category": record.category,
            "source": record.source,
            "detail": {k: _plain(v) for k, v in record.detail.items()},
        })

    def apply_grant_ops(self, ops: tuple[FaultOp, ...]) -> None:
        """Schedule rebased control ops; the conservative barrier
        guarantees the shard clock has not passed any of them."""
        sim = self.sim
        for op in ops:
            sim.schedule_at(max(op.time, sim.now), apply_fault_op,
                            self.fabric, op, priority=PRIORITY_HIGH)

    def run_windows(self, recv, send) -> None:
        """The shard side of the horizon protocol."""
        sim = self.sim
        while True:
            send(("clock", self.shard_id, sim.now, sim.next_event_time()))
            grant = recv()
            self.apply_grant_ops(grant.ops)
            self.rounds += 1
            if grant.final:
                sim.run(until=grant.horizon)
                return
            sim.run_before(grant.horizon)

    def finish(self) -> ShardResult:
        fabric = self.fabric
        sim = self.sim
        if fabric.flow_engine is not None:
            fabric.flow_engine.settle_now()
        violations = []
        if self.oracle is not None:
            self.oracle.check_now()
            violations = [
                (v.kind, v.where, v.time,
                 {k: _plain(val) for k, val in v.detail.items()})
                for v in self.oracle.violations
            ]
            self.oracle.close()
        usage = _usage_snapshot(fabric.links)
        drops = _drops_snapshot(fabric.links)
        link_bytes = {}
        link_frames = {}
        link_drops = {}
        for key, (nbytes, nframes) in usage.items():
            base_bytes, base_frames = self._baseline[key]
            link_bytes[key] = nbytes - base_bytes
            link_frames[key] = nframes - base_frames
            link_drops[key] = drops[key] - self._baseline_drops[key]
        return ShardResult(
            shard_id=self.shard_id,
            owned_pods=self.owned_pods,
            start_time=self.start_time,
            end_time=sim.now,
            rounds=self.rounds,
            events=sim.events_executed - self._events0,
            arrivals=self.workload.arrivals(),
            sent=self.workload.sent(),
            fcts=self.workload.fluid_completions(),
            link_bytes=link_bytes,
            link_frames=link_frames,
            link_drops=link_drops,
            queue_stats=sim.queue_stats(),
            path_stats=fabric.path_cache_stats(),
            flow_stats=fabric.flow_engine_stats(),
            path_signature=(fabric.path_cache.table_signature()
                            if fabric.path_cache is not None else ""),
            violations=violations,
            trace=self._trace_records,
        )


def _new_simulator(seed: int):
    from repro.sim.simulator import Simulator

    return Simulator(seed=seed)


def _usage_snapshot(links):
    from repro.metrics.utilization import snapshot

    return snapshot(links)


def _drops_snapshot(links):
    return {key: link.a.counters.drops + link.b.counters.drops
            for key, link in links.items()}


# ----------------------------------------------------------------------
# Worker entry points and channels


def _worker_body(spec: ParallelRunSpec, plan: ShardPlan, shard_id: int,
                 recv, send) -> None:
    try:
        harness = _ShardHarness(spec, shard_id, plan.assignments[shard_id])
        harness.setup()
        harness.run_windows(recv, send)
        send(("result", shard_id, harness.finish()))
    except BaseException:
        send(("error", shard_id, traceback.format_exc()))


def _process_worker_main(spec, plan, shard_id, conn) -> None:
    """Module-level so the 'spawn' start method can pickle it."""
    _worker_body(spec, plan, shard_id, conn.recv, conn.send)
    conn.close()


class _ThreadChannel:
    def __init__(self, spec, plan, shard_id) -> None:
        self._to_worker: SimpleQueue = SimpleQueue()
        self._to_coord: SimpleQueue = SimpleQueue()
        self.thread = threading.Thread(
            target=_worker_body,
            args=(spec, plan, shard_id, self._to_worker.get,
                  self._to_coord.put),
            name=f"shard-{shard_id}", daemon=True)
        self.thread.start()

    def send(self, obj) -> None:
        self._to_worker.put(obj)

    def recv(self):
        return self._to_coord.get()

    def close(self) -> None:
        self.thread.join(timeout=30.0)


class _ProcessChannel:
    def __init__(self, ctx, spec, plan, shard_id) -> None:
        self._conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_process_worker_main, args=(spec, plan, shard_id, child),
            name=f"shard-{shard_id}", daemon=True)
        self.process.start()
        child.close()

    def send(self, obj) -> None:
        self._conn.send(obj)

    def recv(self):
        return self._conn.recv()

    def close(self) -> None:
        self.process.join(timeout=30.0)
        if self.process.is_alive():  # pragma: no cover - hang backstop
            self.process.terminate()


def _spawn_channels(backend: str, spec: ParallelRunSpec, plan: ShardPlan):
    if backend == "thread":
        return [_ThreadChannel(spec, plan, sid)
                for sid in range(plan.num_shards)]
    if backend == "process":
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        return [_ProcessChannel(ctx, spec, plan, sid)
                for sid in range(plan.num_shards)]
    raise ValueError(f"unknown backend {backend!r} (thread|process)")


# ----------------------------------------------------------------------
# Coordinator


def run_sharded(spec: ParallelRunSpec, workers: int = 2,
                backend: str = "thread") -> ParallelResult:
    """Run ``spec`` sharded over ``workers`` workload shards (+ the FM
    shard) and merge the results. ``backend`` is ``"thread"`` (protocol
    smoke on 1-core CI) or ``"process"`` (real parallelism)."""
    plan = ShardPlan.for_pods(spec.k, workers)
    channels = _spawn_channels(backend, spec, plan)
    rounds = 0
    try:
        reports = [_checked(ch.recv(), "clock") for ch in channels]
        # Wall clock starts once every replica has converged: replica
        # build/convergence is per-process setup (it overlaps given
        # enough cores), not part of the windowed protocol under test.
        wall0 = _time.perf_counter()
        starts = {r[2] for r in reports}
        if len(starts) != 1:
            raise SimulationError(
                f"replicas converged at different times: {sorted(starts)} — "
                "the fabric build is not deterministic")
        start = starts.pop()
        until = start + spec.duration_s
        window = max(spec.window_s, spec.lookahead_s)
        pending = deque(sorted(
            (replace(op, time=start + op.time) for op in spec.faults),
            key=lambda op: (op.time, op.kind, op.a, op.b)))
        while True:
            nexts = [r[3] for r in reports if r[3] is not None]
            candidates = [min(nexts)] if nexts else []
            if pending:
                candidates.append(pending[0].time)
            base = min(candidates) if candidates else None
            if base is None or base >= until:
                ops = tuple(op for op in pending if op.time <= until)
                for ch in channels:
                    ch.send(_Grant(until, True, ops))
                rounds += 1
                break
            horizon = min(until, base + window)
            ops = []
            while pending and pending[0].time < horizon:
                ops.append(pending.popleft())
            grant = _Grant(horizon, False, tuple(ops))
            for ch in channels:
                ch.send(grant)
            rounds += 1
            reports = [_checked(ch.recv(), "clock") for ch in channels]
        results = [_checked(ch.recv(), "result")[2] for ch in channels]
    finally:
        for ch in channels:
            ch.close()
    wall_s = _time.perf_counter() - wall0
    return merge_results(results, wall_s=wall_s, backend=backend,
                         workers=workers, rounds=rounds)


def _checked(message, expected_tag):
    if message[0] == "error":
        raise SimulationError(
            f"shard {message[1]} failed:\n{message[2]}")
    if message[0] != expected_tag:  # pragma: no cover - protocol bug
        raise SimulationError(f"expected {expected_tag}, got {message[0]}")
    return message


def run_single(spec: ParallelRunSpec) -> ParallelResult:
    """The single-process reference kernel on the identical spec: one
    replica owning every pod, control ops pre-scheduled, one
    ``run(until)``. The oracle the determinism gate compares against."""
    from repro.topology.fattree import build_fat_tree

    num_pods = build_fat_tree(spec.k,
                              hosts_per_edge=spec.hosts_per_edge).num_pods
    harness = _ShardHarness(spec, 0, tuple(range(num_pods)))
    harness.setup()
    # Matches run_sharded: the wall clock covers the measurement window
    # and result extraction, not fabric build/convergence.
    wall0 = _time.perf_counter()
    start = harness.start_time
    harness.apply_grant_ops(tuple(
        replace(op, time=start + op.time) for op in spec.faults))
    harness.sim.run(until=start + spec.duration_s)
    harness.rounds = 1
    result = harness.finish()
    wall_s = _time.perf_counter() - wall0
    return merge_results([result], wall_s=wall_s, backend="single",
                         workers=1, rounds=1)


# ----------------------------------------------------------------------
# Merge and equivalence


def _trace_key(record: dict) -> tuple:
    return (record["time"], record["category"], record["source"],
            tuple(sorted(record["detail"].items())))


def merge_results(results: list[ShardResult], wall_s: float, backend: str,
                  workers: int, rounds: int) -> ParallelResult:
    """Merge shard results into one fabric-wide view.

    ``results[0]`` is the FM/control shard (or the sole result of a
    single-process run): its counter deltas are pure control-plane
    charges, identical in every replica, so the merged per-link total is
    ``fm + sum(shard - fm)``. Deliveries/sends/drops partition by flow
    ownership and merge disjointly.
    """
    fm = results[0]
    rest = results[1:]
    arrivals: dict = {}
    sent: dict = {}
    fcts: dict = {}
    for result in results:
        for mapping, merged in ((result.arrivals, arrivals),
                                (result.sent, sent), (result.fcts, fcts)):
            for key, value in mapping.items():
                if key in merged:
                    raise SimulationError(
                        f"flow {key} produced by two shards — ownership "
                        "is not disjoint")
                merged[key] = value
    link_bytes = {}
    link_frames = {}
    link_drops = {}
    for key in fm.link_bytes:
        link_bytes[key] = fm.link_bytes[key] + sum(
            r.link_bytes[key] - fm.link_bytes[key] for r in rest)
        link_frames[key] = fm.link_frames[key] + sum(
            r.link_frames[key] - fm.link_frames[key] for r in rest)
        link_drops[key] = fm.link_drops[key] + sum(
            r.link_drops[key] - fm.link_drops[key] for r in rest)
    # Trace: control records are replicated in every shard; subtract the
    # FM shard's multiset from each workload shard, keep the rest.
    fm_keys = Counter(_trace_key(r) for r in fm.trace)
    merged_trace = list(fm.trace)
    for result in rest:
        budget = Counter(fm_keys)
        for record in result.trace:
            key = _trace_key(record)
            if budget[key] > 0:
                budget[key] -= 1
                continue
            merged_trace.append(record)
    merged_trace.sort(key=lambda r: (r["time"], r["category"], r["source"]))
    seen = set()
    violations = []
    for result in results:
        for violation in result.violations:
            key = repr(violation)
            if key not in seen:
                seen.add(key)
                violations.append(violation)
    return ParallelResult(
        workers=workers,
        backend=backend,
        start_time=fm.start_time,
        end_time=fm.end_time,
        wall_s=wall_s,
        rounds=rounds,
        events_total=sum(r.events for r in results),
        arrivals=arrivals,
        sent=sent,
        fcts=fcts,
        link_bytes=link_bytes,
        link_frames=link_frames,
        link_drops=link_drops,
        violations=violations,
        trace=merged_trace,
        queue_stats=aggregate_counters(r.queue_stats for r in results),
        path_stats=aggregate_counters(r.path_stats for r in results),
        flow_stats=aggregate_counters(r.flow_stats for r in results),
        path_signatures=tuple(r.path_signature for r in results),
        shard_events=tuple(r.events for r in results),
    )


def diff_results(reference: ParallelResult, candidate: ParallelResult,
                 exact_times: bool = True,
                 fct_tolerance_s: float = 1e-9) -> list[str]:
    """Field-wise equivalence check; an empty list means oracle-equivalent.

    ``exact_times=True`` demands identical ``(time, seq)`` delivery
    tuples (fault-free runs, where every workload frame is cut-through
    and flows never share a queue). With mid-run faults, reconvergence
    frames travel hop-by-hop and *can* queue behind another shard's
    frames in the reference but not in a replica, so timing is not
    preserved — pass ``exact_times=False`` to compare delivered seq sets
    instead (byte totals and drops stay exact either way).
    """
    diffs: list[str] = []
    if set(reference.sent) != set(candidate.sent):
        diffs.append(
            f"flow sets differ: {len(reference.sent)} vs "
            f"{len(candidate.sent)} flows")
        return diffs
    for flow_id, count in reference.sent.items():
        if candidate.sent[flow_id] != count:
            diffs.append(f"sent[{flow_id}]: {count} vs "
                         f"{candidate.sent[flow_id]}")
    for flow_id, log in reference.arrivals.items():
        other = candidate.arrivals.get(flow_id, ())
        if exact_times:
            if tuple(log) != tuple(other):
                diffs.append(
                    f"arrivals[{flow_id}]: {len(log)} deliveries vs "
                    f"{len(other)} (or times differ)")
        else:
            if {seq for _t, seq in log} != {seq for _t, seq in other}:
                diffs.append(f"arrival seq set differs for {flow_id}")
    for name, ref_map, cand_map in (
            ("bytes", reference.link_bytes, candidate.link_bytes),
            ("frames", reference.link_frames, candidate.link_frames),
            ("drops", reference.link_drops, candidate.link_drops)):
        for key, value in ref_map.items():
            if cand_map.get(key) != value:
                diffs.append(
                    f"link {name} {key}: {value} vs {cand_map.get(key)}")
    for flow_id, fct in reference.fcts.items():
        other = candidate.fcts.get(flow_id)
        if other is None or abs(other - fct) > fct_tolerance_s:
            diffs.append(f"fct[{flow_id}]: {fct} vs {other}")
    if len(reference.violations) != len(candidate.violations):
        diffs.append(
            f"violations: {len(reference.violations)} vs "
            f"{len(candidate.violations)}")
    return diffs
