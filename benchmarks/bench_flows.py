"""Flow-level (fluid) engine acceptance benchmark.

Two measurements, one artifact (``BENCH_flows.json`` at the repo root,
plus the usual ``results/flows.json`` copy):

* **speedup** — a k=8 random-permutation shuffle (128 hosts, one bulk
  transfer each) run to completion in frame mode (TCP senders over the
  compiled-path fast path — the *fastest* frame configuration) and in
  flow mode (fluid rates). Gate: flow mode completes the shuffle with
  at least 20x fewer simulator events.
* **agreement** — the k=4 CBR permutation from the tier-1 smoke test,
  re-measured here with its divergence numbers recorded: worst per-link
  byte divergence (gate 2%) and worst per-flow rate divergence vs the
  frame-mode receiver's goodput (gate 5%).

Event counts are raw ``events_executed`` over each mode's *completion
window* (finite transfers, not fixed durations). LDP's per-switch beacon
and liveness ticks run in both modes and are part of the count: with
keepalives accounted rather than scheduled (docs/PERF.md, "Keepalive
floor") they no longer swamp the workload, so nothing is subtracted.
"""

import time

from common import (bench_payload, converged_portland, print_header,
                    run_once, save_results, write_bench_json)

from repro.host.apps.udp_stream import UdpStreamReceiver, UdpStreamSender
from repro.metrics.utilization import snapshot, usage_since
from repro.portland.config import PortlandConfig
from repro.workloads.shuffle import FluidShuffleWorkload, ShuffleWorkload
from repro.workloads.traffic import random_permutation_pairs

K = 8
BYTES_PER_FLOW = 500_000
EVENT_REDUCTION_GATE = 20.0
#: Fluid mean FCT must land within this of the frame path's (the
#: RTT-aware fluid TCP model — handshake, cwnd ramp, FIN drain — is
#: what closes the gap; without it the fluid shuffle finishes ~86%
#: early because rates jump instantly to max-min).
FCT_DIVERGENCE_GATE = 0.10

AGREEMENT_WINDOW_S = 0.25
AGREEMENT_RATE_PPS = 2000.0
AGREEMENT_PAYLOAD = 1000
LINK_BYTES_GATE = 0.02
RATE_GATE = 0.05
#: Absolute per-link slack (bytes): one-shot ARP frames + ±1 in-flight
#: frame per flow, which the relative gate cannot absorb on idle links.
LINK_BYTES_SLACK = 6_000


def _pair_names(fabric):
    rng = fabric.sim.random.stream("bench-flows")
    return [(a.name, b.name)
            for a, b in random_permutation_pairs(fabric.host_list(), rng)]


def _shuffle_run(fabric, pairs_by_name, fluid: bool) -> dict:
    pairs = [(fabric.hosts[a], fabric.hosts[b]) for a, b in pairs_by_name]
    wall0 = time.perf_counter()
    t0 = fabric.sim.now
    events0 = fabric.sim.events_executed
    if fluid:
        shuffle = FluidShuffleWorkload(fabric, pairs=pairs,
                                       bytes_per_flow=BYTES_PER_FLOW)
        shuffle.start()
        done_at = shuffle.run_until_done(timeout_s=60.0, step_s=0.001)
    else:
        shuffle = ShuffleWorkload(fabric.sim, fabric.host_list(), pairs=pairs,
                                  bytes_per_flow=BYTES_PER_FLOW)
        shuffle.start()
        done_at = shuffle.run_until_done(timeout_s=60.0)
    stats = shuffle.fct_stats()
    events = fabric.sim.events_executed - events0
    window_s = fabric.sim.now - t0
    return {
        "flows": len(shuffle.results),
        "bytes_per_flow": BYTES_PER_FLOW,
        "events": events,
        "window_s": window_s,
        "wall_s": time.perf_counter() - wall0,
        "completion_s": done_at - (shuffle.results[0].started_at
                                   if shuffle.results else done_at),
        "fct_mean_s": stats.mean,
        "fct_p99_s": stats.p99,
        "goodput_bps": shuffle.aggregate_goodput_bps(
            done_at - shuffle.results[0].started_at),
    }


def _measure_agreement() -> dict:
    """The tier-1 k=4 CBR agreement check, with numbers kept."""
    frame_fab = converged_portland(
        99, k=4, carrier=True, config=PortlandConfig(path_cache_entries=4096))
    fluid_fab = converged_portland(
        99, k=4, carrier=True, config=PortlandConfig(flow_mode=True))
    rng = frame_fab.sim.random.stream("agreement")
    pairs = [(a.name, b.name) for a, b in
             random_permutation_pairs(frame_fab.host_list(), rng)]

    senders, receivers = [], []
    for i, (src_name, dst_name) in enumerate(pairs):
        src, dst = frame_fab.hosts[src_name], frame_fab.hosts[dst_name]
        receivers.append(UdpStreamReceiver(dst, 6000 + i))
        sender = UdpStreamSender(src, dst.ip, 6000 + i,
                                 rate_pps=AGREEMENT_RATE_PPS,
                                 payload_bytes=AGREEMENT_PAYLOAD)
        sender.start()
        senders.append(sender)
    frame_base = snapshot(frame_fab.links)
    frame_fab.sim.run(until=frame_fab.sim.now + AGREEMENT_WINDOW_S)
    frame_usage = {u.name: u.bytes_total
                   for u in usage_since(frame_fab.links, frame_base)}

    engine = fluid_fab.flow_engine
    flows = []
    for i, (src_name, dst_name) in enumerate(pairs):
        src, dst = fluid_fab.hosts[src_name], fluid_fab.hosts[dst_name]
        flows.append(engine.start_flow(
            src, dst.ip, demand_bps=AGREEMENT_RATE_PPS * AGREEMENT_PAYLOAD * 8,
            sport=senders[i].socket.port, dport=6000 + i,
            payload_bytes=AGREEMENT_PAYLOAD))
    fluid_base = snapshot(fluid_fab.links)
    fluid_fab.sim.run(until=fluid_fab.sim.now + AGREEMENT_WINDOW_S)
    engine.settle_now()
    fluid_usage = {u.name: u.bytes_total
                   for u in usage_since(fluid_fab.links, fluid_base)}

    max_rate_div = 0.0
    for i, flow in enumerate(flows):
        goodput = len(receivers[i].arrivals) * AGREEMENT_PAYLOAD * 8 \
            / AGREEMENT_WINDOW_S
        max_rate_div = max(max_rate_div, abs(
            flow.average_rate_bps(fluid_fab.sim.now) - goodput) / goodput)

    max_link_div = 0.0
    for name in frame_usage:
        a, b = frame_usage[name], fluid_usage[name]
        gap = abs(a - b)
        if gap <= LINK_BYTES_SLACK:
            continue
        max_link_div = max(max_link_div, gap / max(a, b))

    return {
        "k": 4,
        "flows": len(pairs),
        "window_s": AGREEMENT_WINDOW_S,
        "links_compared": len(frame_usage),
        "max_link_bytes_divergence": max_link_div,
        "link_bytes_gate": LINK_BYTES_GATE,
        "max_flow_rate_divergence": max_rate_div,
        "flow_rate_gate": RATE_GATE,
    }


def test_fluid_shuffle_event_reduction(benchmark):
    def run():
        frame_fab = converged_portland(
            31, k=K, carrier=True,
            config=PortlandConfig(path_cache_entries=65536), timeout_s=10.0)
        fluid_fab = converged_portland(
            31, k=K, carrier=True,
            config=PortlandConfig(flow_mode=True), timeout_s=10.0)
        pairs = _pair_names(frame_fab)
        frame = _shuffle_run(frame_fab, pairs, fluid=False)
        fluid = _shuffle_run(fluid_fab, pairs, fluid=True)
        agreement = _measure_agreement()
        return {
            "k": K,
            "frame": frame,
            "fluid": fluid,
            "event_reduction": frame["events"] / max(1, fluid["events"]),
            "event_reduction_gate": EVENT_REDUCTION_GATE,
            "fct_divergence": abs(fluid["fct_mean_s"] - frame["fct_mean_s"])
            / frame["fct_mean_s"],
            "fct_divergence_gate": FCT_DIVERGENCE_GATE,
            "wall_clock_speedup": frame["wall_s"] / max(1e-9, fluid["wall_s"]),
            "agreement": agreement,
        }

    result = run_once(benchmark, run)

    print_header(
        f"FLOW MODE - k={K} permutation shuffle, "
        f"{result['frame']['flows']} x {BYTES_PER_FLOW // 1000} kB")
    print(f"{'mode':8} {'events':>10} {'wall':>8} {'mean FCT':>10} "
          f"{'goodput':>12}")
    for mode in ("frame", "fluid"):
        r = result[mode]
        print(f"{mode:8} {r['events']:>10,} {r['wall_s']:>7.2f}s "
              f"{r['fct_mean_s'] * 1000:>8.2f}ms "
              f"{r['goodput_bps'] / 1e9:>10.2f}Gb/s")
    print(f"\nevent reduction: {result['event_reduction']:.1f}x raw (gate "
          f"{EVENT_REDUCTION_GATE:.0f}x), wall-clock speedup "
          f"{result['wall_clock_speedup']:.1f}x")
    print(f"fluid TCP fct_mean divergence: "
          f"{100 * result['fct_divergence']:.2f}% "
          f"(gate {100 * FCT_DIVERGENCE_GATE:.0f}%)")
    agreement = result["agreement"]
    print(f"agreement (k=4 CBR): worst link bytes "
          f"{100 * agreement['max_link_bytes_divergence']:.2f}% "
          f"(gate {100 * LINK_BYTES_GATE:.0f}%), worst flow rate "
          f"{100 * agreement['max_flow_rate_divergence']:.2f}% "
          f"(gate {100 * RATE_GATE:.0f}%)")

    save_results("flows", result)
    write_bench_json("flows", bench_payload(
        "flows",
        ratio=result["event_reduction"],
        events=result["frame"]["events"] + result["fluid"]["events"],
        wall_s=result["frame"]["wall_s"] + result["fluid"]["wall_s"],
        config={"k": K, "bytes_per_flow": BYTES_PER_FLOW,
                "event_reduction_gate": EVENT_REDUCTION_GATE,
                "fct_divergence_gate": FCT_DIVERGENCE_GATE},
        frame=result["frame"], fluid=result["fluid"],
        agreement=agreement,
        fct_divergence=result["fct_divergence"],
        wall_clock_speedup=result["wall_clock_speedup"]))

    assert result["event_reduction"] >= EVENT_REDUCTION_GATE
    assert result["fct_divergence"] <= FCT_DIVERGENCE_GATE
    assert agreement["max_link_bytes_divergence"] <= LINK_BYTES_GATE
    assert agreement["max_flow_rate_divergence"] <= RATE_GATE
    # Both modes moved the same payload to completion.
    assert result["frame"]["flows"] == result["fluid"]["flows"] == K ** 3 // 4
