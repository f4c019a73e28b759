"""Hybrid fluid+frame execution at scale: a k=16 fabric carrying a
10k-flow fluid background sea under a frame-level TCP foreground.

The experiment the hybrid mode exists for (docs/FLOWS.md, "Hybrid
execution"): 10,240 open-ended CBR background flows (10 per host,
16 Mb/s each — ~164 Gb/s aggregate) run as fluid rates, while 32
foreground 500 kB TCP transfers run at frame level through the same
links, with three agg-core faults injected (and recovered) inside the
foreground window. Gates:

* **scale** — ≥10,240 background fluid flows admitted and allocated,
  ≥32 frame-level foreground transfers completed;
* **event reduction** — the hybrid run must cost ≥20x fewer simulator
  events (raw ``events_executed``, LDP's beacon and liveness ticks
  included) over the foreground completion window than an
  all-frame execution of the identical offered load. The all-frame arm
  is measured as a steady-state rate sample (see below), because
  actually running 10,240 UDP senders at 2,000 pkt/s for the full
  window (~5 million packets) would take hours of wall clock — the
  same reason the hybrid mode exists;
* **soundness** — an `InvariantOracle` watches every foreground frame
  hop and every fluid path re-resolution through the fault sequence,
  plus a post-hoc static walk scoped to the workload's host pairs
  (the full 1024x1023 all-pairs walk is a multi-minute affair at this
  scale); zero violations.

**All-frame arm methodology.** A frame-mode fabric of the same seed
and degree runs the identical workload (10,240 UDP CBR senders at
2,000 pkt/s x 1,000 B plus the same 32-flow TCP foreground). After a
short ramp, the steady event rate is sampled over a 2 ms slice; the
all-frame cost over the hybrid's measured foreground window is then
`rate x window` — an extrapolation, reported as such in
`BENCH_hybrid.json`. The sampled
rate is the *floor* of the true cost: it excludes the foreground's
retransmission tail under faults, which only adds events.

Writes ``BENCH_hybrid.json`` (schema: `repro.metrics.benchout`).
Run via ``make bench-hybrid``.
"""

import time

from common import (
    bench_payload,
    converged_portland,
    print_header,
    run_once,
    save_results,
    write_bench_json,
)
from repro.portland.config import PortlandConfig
from repro.verify import InvariantOracle
from repro.workloads.hybrid import HybridWorkload
from repro.workloads.shuffle import ShuffleWorkload
from repro.workloads.traffic import UdpFlowSet

K = 16
SEED = 77
BG_PER_HOST = 10
BG_RATE_BPS = 16e6
BG_PAYLOAD = 1000
FG_FLOWS = 32
FG_BYTES = 500_000
EVENT_REDUCTION_FLOOR = 20.0

#: All-frame arm: stagger-ramp then steady-rate sample windows.
RAMP_S = 0.0045
SAMPLE_S = 0.002

#: Three agg-core faults inside the foreground window, recovered while
#: the foreground is still running (offsets from foreground start).
FAULTS = (
    (0.005, "agg-p0-s0", "core-0"),
    (0.005, "agg-p3-s1", "core-12"),
    (0.006, "agg-p7-s4", "core-37"),
)
RECOVER_AFTER_S = 0.015


def _pairs(hosts):
    """Deterministic stride traffic matrices (no RNG draws: the same
    pairs land on both arms without coupling their seed streams)."""
    n = len(hosts)
    bg = [(hosts[i], hosts[(i + 97 * (j + 1)) % n])
          for i in range(n) for j in range(BG_PER_HOST)]
    bg = [(s, d) for s, d in bg if s is not d]
    fg = [(hosts[(i * 31) % n], hosts[(i * 31 + 517) % n])
          for i in range(FG_FLOWS)]
    return bg, fg


def _schedule_faults(fabric, at_base: float):
    sim = fabric.sim
    for offset, agg, core in FAULTS:
        link = fabric.link_between(agg, core)
        sim.schedule(at_base + offset, link.fail)
        sim.schedule(at_base + offset + RECOVER_AFTER_S, link.recover)


def test_hybrid_sea_under_frame_foreground(benchmark):
    # ------------------------------------------------------------------
    # Hybrid arm: fluid background sea + frame foreground + faults.
    wall0 = time.perf_counter()
    fabric = converged_portland(
        SEED, k=K, carrier=True, timeout_s=10.0,
        config=PortlandConfig(flow_mode="hybrid"))
    sim = fabric.sim
    hosts = fabric.host_list()
    bg_pairs, fg_pairs = _pairs(hosts)
    assert len(bg_pairs) >= 10_240 and len(fg_pairs) >= 32

    # Attached before admission, so every one of the 10k+ initial fluid
    # path resolutions is invariant-checked, not just the fault-window
    # re-resolutions.
    oracle = InvariantOracle(fabric)

    workload = HybridWorkload(fabric, bg_pairs, fg_pairs,
                              background_bps=BG_RATE_BPS,
                              payload_bytes=BG_PAYLOAD,
                              bytes_per_flow=FG_BYTES)
    workload.start_background()
    sim.run(until=sim.now + 0.08)  # 8 batches x 5 ms + settle
    engine = fabric.flow_engine
    admit_stats = engine.stats()
    assert admit_stats["flows_active"] >= 10_240
    bg_rate = workload.background_rate_bps()

    def hybrid_foreground():
        fg_start = sim.now
        events_before = sim.events_executed
        _schedule_faults(fabric, at_base=0.0)
        workload.start_foreground()
        done = workload.run_until_foreground_done(timeout_s=30.0,
                                                  step_s=0.005)
        return done - fg_start, sim.events_executed - events_before

    t0 = time.perf_counter()
    window_s, hybrid_events = run_once(benchmark, hybrid_foreground)
    hybrid_wall = time.perf_counter() - t0
    fct = workload.fct_stats()
    bg_delivered = workload.background_delivered_bytes()

    # Post-hoc static checks scoped to the workload's own pairs (the
    # full all-pairs walk is ~1M table walks at k=16). Runtime hop and
    # flow-path checks covered the whole fault sequence above.
    scoped = [(s, d) for s, d in fg_pairs] + \
             [(d, s) for s, d in fg_pairs] + bg_pairs[:128]
    oracle.check_now(pairs=scoped)
    assert oracle.violations == [], oracle.violations[:3]
    assert oracle.hops > 0 and oracle.flow_paths >= len(bg_pairs)
    oracle.close()
    hybrid_total_wall = time.perf_counter() - wall0

    # ------------------------------------------------------------------
    # All-frame arm: identical offered load, steady-rate sample.
    frame_fab = converged_portland(SEED, k=K, carrier=True, timeout_s=10.0)
    fhosts = frame_fab.host_list()
    fbg, ffg = _pairs(fhosts)
    udp = UdpFlowSet(fbg, rate_pps=BG_RATE_BPS / (BG_PAYLOAD * 8),
                     payload_bytes=BG_PAYLOAD, base_port=20000)
    fg_shuffle = ShuffleWorkload(frame_fab.sim, hosts=[], pairs=ffg,
                                 bytes_per_flow=FG_BYTES, base_port=31000,
                                 stagger_s=0.001)
    udp.start(stagger=RAMP_S * 0.9 / len(fbg))
    fg_shuffle.start()
    frame_fab.sim.run(until=frame_fab.sim.now + RAMP_S)
    events_before = frame_fab.sim.events_executed
    ts = frame_fab.sim.now
    t0 = time.perf_counter()
    frame_fab.sim.run(until=ts + SAMPLE_S)
    sample_wall = time.perf_counter() - t0
    frame_rate = (frame_fab.sim.events_executed - events_before) / SAMPLE_S
    projected_frame_events = frame_rate * window_s
    udp.stop()

    reduction = projected_frame_events / hybrid_events

    # ------------------------------------------------------------------
    print_header(
        f"hybrid fluid+frame execution, k={K} "
        f"({len(bg_pairs)} background fluid + {len(fg_pairs)} frame TCP)")
    print(f"background: {admit_stats['flows_active']} fluid flows, "
          f"{bg_rate / 1e9:.2f} Gb/s allocated, "
          f"{admit_stats['recomputes']} recomputes to admit, "
          f"{bg_delivered / 1e6:.0f} MB delivered")
    print(f"foreground: {len(fg_pairs)} x {FG_BYTES // 1000} kB TCP, "
          f"window {window_s * 1e3:.1f} ms, "
          f"FCT mean/p99 {fct.mean * 1e3:.2f}/{fct.p99 * 1e3:.2f} ms, "
          f"{len(FAULTS)} agg-core faults injected+recovered")
    print(f"oracle: {oracle.hops} frame hops, {oracle.flow_paths} fluid "
          f"paths checked, {len(oracle.violations)} violations")
    print(f"hybrid events over window: {hybrid_events}; "
          f"wall {hybrid_wall:.1f} s")
    print(f"all-frame steady rate: {frame_rate:.0f} ev/s "
          f"(sampled {SAMPLE_S * 1e3:.0f} ms in {sample_wall:.1f} s wall) "
          f"-> projected {projected_frame_events:.0f} events over the "
          f"same window")
    print(f"event reduction: {reduction:.0f}x (floor "
          f"{EVENT_REDUCTION_FLOOR:.0f}x)")

    assert fg_shuffle.num_flows == len(ffg)
    assert workload.foreground.all_done()
    assert reduction >= EVENT_REDUCTION_FLOOR, (
        f"hybrid execution only {reduction:.1f}x cheaper than the "
        f"projected all-frame cost (floor {EVENT_REDUCTION_FLOOR}x)")

    payload = bench_payload(
        "hybrid",
        ratio=round(reduction, 1),
        events=hybrid_events,
        wall_s=round(hybrid_total_wall, 2),
        config={
            "k": K, "seed": SEED,
            "background_flows": len(bg_pairs),
            "background_bps": BG_RATE_BPS,
            "foreground_flows": len(fg_pairs),
            "foreground_bytes": FG_BYTES,
            "faults": [f"{agg}~{core}" for _t, agg, core in FAULTS],
        },
        foreground_window_ms=round(window_s * 1e3, 1),
        fct_mean_ms=round(fct.mean * 1e3, 2),
        fct_p99_ms=round(fct.p99 * 1e3, 2),
        background_rate_gbps=round(bg_rate / 1e9, 2),
        background_delivered_mb=round(bg_delivered / 1e6, 1),
        allframe_event_rate=round(frame_rate),
        allframe_projection=(
            "allframe events = steady event rate x hybrid foreground "
            "window (full all-frame run is infeasible; rate excludes the "
            "fault retransmission tail, so the ratio is a floor)"),
        oracle={"hops": oracle.hops, "flow_paths": oracle.flow_paths,
                "violations": len(oracle.violations)},
    )
    save_results("hybrid", payload)
    write_bench_json("hybrid", payload)
