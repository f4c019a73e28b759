"""One repeat of one workload, in its own process.

``run.py`` starts this file once per repeat, so peak RSS, the garbage
collector and every cache start cold each time. It builds the fabric,
brings it up, runs the workload, checks it with the invariant oracle
and prints one JSON object: host timings, simulated results, per-layer
counters read as before/after differences around the run phase and,
with ``--traced``, the span aggregates of :mod:`tracing`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def read_counters(fabric, tcp_connections: list) -> dict:
    """Cumulative per-layer counters, from each module's public ones."""
    sim = fabric.sim
    queue = sim.queue_stats()
    fm = fabric.fabric_manager
    hosts = list(fabric.hosts.values())
    nodes = list(fabric.switches.values()) + hosts + [fm]
    counters = [port.counters for node in nodes for port in node.ports]
    dcache = fabric.decision_cache_stats()
    pcache = fabric.path_cache_stats()
    flows = fabric.flow_engine_stats()
    agents = list(fabric.agents.values())
    return {
        "sim.events": sim.events_executed,
        "sim.pushes": queue["pushes"],
        "sim.cancellations": queue["cancellations"],
        "sim.compactions": queue["compactions"],
        "net.frames_tx": sum(c.tx_frames for c in counters),
        "net.bytes_tx": sum(c.tx_bytes for c in counters),
        "net.queue_drops": sum(c.drops for c in counters),
        "switching.dcache_hits": dcache.get("hits", 0),
        "switching.dcache_misses": dcache.get("misses", 0),
        "switching.dcache_flushes": dcache.get("flushes", 0),
        "switching.pcache_compiles": pcache.get("compiles", 0),
        "switching.pcache_launches": pcache.get("launches", 0),
        "switching.pcache_invalidated": pcache.get("invalidated", 0),
        "switching.miss_drops": sum(s.miss_drops
                                    for s in fabric.switches.values()),
        "ldp.ldms_sent": sum(a.ldp.ldms_sent for a in agents),
        "agent.ctrl_msgs_tx": sum(a.control_messages_sent for a in agents),
        "agent.ctrl_bytes_tx": sum(a.control_bytes_sent for a in agents),
        "fm.msgs_rx": fm.messages_received,
        "fm.msgs_tx": fm.messages_sent,
        "fm.bytes_tx": fm.bytes_sent,
        "fm.arp_queries": fm.arp_queries,
        "fm.override_recomputes": fm.override_recomputes,
        "fm.override_edges_examined": fm.override_edges_examined,
        "fm.override_updates_sent": fm.override_updates_sent,
        "fm.busy_sim_s": fm.busy_time,
        "host.tcp_bytes_tx": sum(c.bytes_sent for c in tcp_connections),
        "host.tcp_retransmits": sum(c.segments_retransmitted
                                    for c in tcp_connections),
        "host.arp_requests": sum(h.arp_requests_sent for h in hosts),
        "host.unresolved_drops": sum(h.unresolved_drops for h in hosts),
        "flows.recomputes": flows.get("recomputes", 0),
        "flows.reresolutions": flows.get("reresolutions", 0),
        "flows.bottleneck_events": flows.get("bottleneck_events", 0),
        "flows.tcp_cuts": flows.get("tcp_cuts", 0),
        "flows.stall_events": flows.get("stall_events", 0),
    }


def record_tcp_connections() -> list:
    """Every connection ``TcpStack.connect`` opens from now on.

    A closed connection is dropped from its stack, and its counters with
    it, so the only outside view of retransmissions is to keep the
    objects the public ``connect`` hands back.
    """
    from repro.host.tcp.stack import TcpStack

    opened: list = []
    connect = TcpStack.connect

    def recording_connect(self, *args, **kwargs):
        connection = connect(self, *args, **kwargs)
        opened.append(connection)
        return connection

    TcpStack.connect = recording_connect
    return opened


def sim_digest(sim_metrics: dict, events: int) -> str:
    """Hash of everything simulated: equal digests, equal behaviour."""
    canonical = json.dumps({"sim": sim_metrics, "sim.events": events},
                           sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_once(name: str, seed: int, traced: bool, smoke: bool) -> dict:
    from repro.topology.builder import build_portland_fabric
    from repro.verify.oracle import InvariantOracle

    import tracing
    from hostclock import HostClock, PacedSimulator
    from workloads import QUIET_TAIL_S, WORKLOADS

    workload = WORKLOADS[name].sized(smoke)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    tcp_connections = record_tcp_connections()
    rng = random.Random(seed)
    clock = HostClock()

    gc.collect()
    gc_before = sum(g["collections"] for g in gc.get_stats())
    cpu_start = time.process_time()

    # Setup: what every test, figure and campaign pays before it starts.
    with clock.phase("build"):
        sim = (tracing.TracingSimulator(seed, clock, workload.setup_slice_s,
                                        tracer) if traced
               else PacedSimulator(seed, clock, workload.setup_slice_s))
        fabric = build_portland_fabric(sim, k=workload.k,
                                       config=workload.config,
                                       link_params=workload.link_params())
    located_at: list[float] = []

    def on_located(record) -> None:
        located_at.append(record.time)

    sim.trace.subscribe("ldp.located", on_located)
    with clock.phase("locate"):
        fabric.start()
        fabric.run_until_located()
    sim.trace.unsubscribe("ldp.located", on_located)
    with clock.phase("register"):
        fabric.announce_hosts()
        registered_at = fabric.run_until_registered()

    before = read_counters(fabric, tcp_connections)
    sim_start = sim.now
    sim.slice_s = workload.slice_s
    if tracer is not None:
        tracer.reset()
    with clock.phase("run"):
        outcome = workload.run(fabric, rng)
        tail_events = sim.events_executed
        sim.run(until=sim.now + QUIET_TAIL_S)
        tail_events = sim.events_executed - tail_events
    run = clock.phases["run"]
    # The tracer saw measured seconds; report them as reference seconds
    # like every other host time.
    trace = (tracer.snapshot(run["seconds"],
                             scale=run["reference_s"] / run["seconds"])
             if tracer is not None else None)
    after = read_counters(fabric, tcp_connections)

    with clock.phase("check"):
        oracle = InvariantOracle(fabric, track_hops=False)
        violations = oracle.check_now(pairs=outcome.pairs)

    build_s, locate_s, register_s, run_s, check_s = (
        clock.phases[phase]["reference_s"]
        for phase in ("build", "locate", "register", "run", "check"))
    setup_s = build_s + locate_s + register_s
    layers = {key: after[key] - before[key] for key in after}
    layers.update(outcome.counts)
    layers.setdefault("host.udp_tx", 0)
    layers.update({
        "sim.events_setup": before["sim.events"],
        "sim.peak_heap": sim.queue_stats()["peak_heap"],
        "sim.us_per_event": run_s / layers["sim.events"] * 1e6,
        "sim.sim_s_per_wall_s": (sim.now - sim_start) / run_s,
        "ldp.events_per_sim_s": tail_events / QUIET_TAIL_S,
        "topology.build_s": build_s,
        "topology.locate_s": locate_s,
        "topology.register_s": register_s,
        "topology.switches": len(fabric.switches),
        "topology.links": len(fabric.links),
        "topology.hosts": len(fabric.hosts),
        "verify.check_s": check_s,
        "verify.pairs": len(outcome.pairs),
        "verify.violations": len(violations),
        "proc.cpu_s": time.process_time() - cpu_start,
        "proc.gc_collections": (sum(g["collections"] for g in gc.get_stats())
                                - gc_before),
        "proc.speed": clock.speed(),
    })
    if trace is not None:
        for layer, totals in trace["layers"].items():
            layers[f"{layer}.self_s"] = totals["self_s"]
            if layer != "sim":
                layers[f"{layer}.calls"] = totals["calls"]
        spans = trace["spans"]
        layers["fm.recompute_self_s"] = spans.get(
            "faults.compute_overrides", {}).get("self_s", 0.0)
        layers["flows.allocate_self_s"] = spans.get(
            "engine.max_min_allocate", {}).get("self_s", 0.0)
        layers["trace.unattributed_s"] = trace["unattributed_s"]

    sim_metrics = {
        "failed_frac": outcome.ops_failed / outcome.ops_attempted,
        "locate_ms": max(located_at) * 1e3,
        "register_ms": registered_at * 1e3,
        **outcome.sim,
    }
    problems = list(outcome.problems)
    problems.extend(f"oracle: {violation}" for violation in violations)
    if outcome.ops_unexpected:
        problems.append(f"{outcome.ops_unexpected} operations failed "
                        "without a modelled cause")
    return {
        "workload": name, "seed": seed, "traced": traced, "smoke": smoke,
        "host": {
            "setup_s": setup_s, "run_s": run_s,
            "wall_s": setup_s + run_s + check_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "sim": sim_metrics,
        "samples": outcome.samples,
        "ops": {"attempted": outcome.ops_attempted,
                "failed": outcome.ops_failed,
                "unexpected": outcome.ops_unexpected},
        "layers": layers,
        "sim_digest": sim_digest(sim_metrics, layers["sim.events"]
                                 + layers["sim.events_setup"]),
        "problems": problems,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    result = run_once(args.workload, args.seed, args.traced, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
