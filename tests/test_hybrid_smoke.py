"""Tier-1 hybrid-mode smoke: fluid background and frame foreground must
actually share link capacity, cheaply enough for plain ``pytest``.

A reduced-scale cousin of ``benchmarks/bench_hybrid.py``'s k=16
acceptance run (k=4, dozens of background flows instead of 10k, no
JSON artifact). Three properties are gated:

* **fluid slows frames** — a frame-level TCP foreground run over links
  carrying a heavy fluid background (900 Mb/s of CBR allocation per
  host link) must complete measurably slower than the identical
  foreground on an idle frame-mode fabric: fluid allocations stretch
  frame serialization (`Link.serialization_time`), so the foreground
  only gets the residual rate;
* **frames don't evict demand-limited fluid** — the background's CBR
  demand fits inside ``capacity - frame_load`` at every point, so the
  epoch-metered frame load must cut nobody: after the foreground
  finishes (and the frame-load EWMA decays), every background flow is
  back at full demand;
* **soundness** — the invariant oracle watches every foreground frame
  hop and every fluid path resolution, then runs the full static walk
  (cheap at k=4); zero violations.
"""

from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.verify import InvariantOracle
from repro.workloads.hybrid import HybridWorkload
from repro.workloads.shuffle import ShuffleWorkload

BG_PER_HOST = 3
BG_RATE_BPS = 300e6          # 900 Mb/s of fluid demand per host link
FG_BYTES = 200_000
SLOWDOWN_FLOOR = 1.5         # expected ~10x at 100 Mb/s residual
DEMAND_TOLERANCE = 0.01


def _converged(seed: int, hybrid: bool):
    sim = Simulator(seed=seed)
    config = PortlandConfig(flow_mode="hybrid" if hybrid else False)
    fabric = build_portland_fabric(sim, k=4, config=config)
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def _pairs(hosts):
    n = len(hosts)
    bg = [(hosts[i], hosts[(i + j + 1) % n])
          for i in range(n) for j in range(BG_PER_HOST)]
    fg = [(hosts[i], hosts[i + n // 2]) for i in range(8)]
    return bg, fg


def test_hybrid_couples_fluid_and_frame_capacity():
    # Baseline: the identical foreground on an idle frame-mode fabric.
    frame_fab = _converged(42, hybrid=False)
    bg_names, fg_names = _pairs([h.name for h in frame_fab.host_list()])
    idle_shuffle = ShuffleWorkload(
        frame_fab.sim, hosts=[],
        pairs=[(frame_fab.hosts[a], frame_fab.hosts[b])
               for a, b in fg_names],
        bytes_per_flow=FG_BYTES, base_port=31000, stagger_s=0.001)
    idle_shuffle.start()
    idle_shuffle.run_until_done(timeout_s=10.0)
    idle_fct = idle_shuffle.fct_stats().mean
    assert idle_fct > 0

    # Hybrid: same foreground under a heavy fluid background sea.
    fabric = _converged(42, hybrid=True)
    oracle = InvariantOracle(fabric)
    workload = HybridWorkload(
        fabric,
        [(fabric.hosts[a], fabric.hosts[b]) for a, b in bg_names],
        [(fabric.hosts[a], fabric.hosts[b]) for a, b in fg_names],
        background_bps=BG_RATE_BPS, bytes_per_flow=FG_BYTES,
        background_batches=4)
    workload.start()
    workload.run_until_foreground_done(timeout_s=10.0)
    hybrid_fct = workload.fct_stats().mean
    stats = fabric.flow_engine.stats()

    assert stats["flows_active"] == len(bg_names)
    assert stats["epoch_ticks"] > 0, "frame-load metering never ticked"
    slowdown = hybrid_fct / idle_fct
    assert slowdown >= SLOWDOWN_FLOOR, (
        f"foreground FCT {hybrid_fct * 1e3:.2f} ms over the fluid sea vs "
        f"{idle_fct * 1e3:.2f} ms idle — only {slowdown:.2f}x slower "
        f"(floor {SLOWDOWN_FLOOR}x); fluid load is not stretching frame "
        f"serialization")

    # Let the frame-load EWMA decay, then every demand-limited CBR
    # background flow must be back at (or still at) full demand: frame
    # traffic must never permanently crowd out fluid demand that fits.
    fabric.sim.run(until=fabric.sim.now + 0.05)
    fabric.flow_engine.settle_now()
    starved = [f.name for f in workload.background_flows
               if f.rate_bps < (1 - DEMAND_TOLERANCE) * BG_RATE_BPS]
    assert not starved, f"background flows below demand: {starved[:5]}"
    assert workload.background_delivered_bytes() > 0

    oracle.check_now()
    assert oracle.violations == [], oracle.violations[:3]
    assert oracle.hops > 0 and oracle.flow_paths >= len(bg_names)
    oracle.close()


def test_hybrid_workload_requires_hybrid_fabric():
    fabric = _converged(43, hybrid=False)
    hosts = fabric.host_list()
    try:
        HybridWorkload(fabric, [(hosts[0], hosts[1])],
                       [(hosts[2], hosts[3])])
        raise AssertionError("HybridWorkload should refuse a frame-mode "
                             "fabric")
    except ValueError:
        pass
