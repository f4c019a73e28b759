"""The names, units and bounds of every number the ledger prints.

*Host* metrics are costs of the simulator on this machine: noisy, so
reported as the median of several fresh-process repeats, and host times
in *reference seconds* (hostclock.py): measured seconds scaled by a
calibration loop run alongside, so that a busy machine does not stretch
them.
*Simulated* (``sim``) metrics are what the modelled fabric would take:
deterministic for a fixed seed, so they must repeat exactly.

``BENCHMARK.json`` is the same list in the benchmark contract's format;
``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

SHUFFLES = ("frame_shuffle_k8", "fluid_shuffle_k8")
FAULTS = ("fault_storm_k8",)
ALL = ("idle_k16",) + SHUFFLES + FAULTS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    kind: str  # "host" or "sim"
    better: str
    #: Share of the previous median by which the metric may get worse,
    #: same seed on both sides. 0 means "no increase".
    bound: float
    workloads: tuple
    meaning: str
    #: Bound in BENCHMARK.json, or None when the metric is not there.
    #: The contract wants every listed metric from every workload, never
    #: zero, and its driver changes the seed from run to run and gates on
    #: batches minutes apart — so only metrics every workload has
    #: qualify, a simulated one needs a bound that covers its seed-to-seed
    #: variation, and a host one a bound at least three times the spread
    #: of ten runs with ten seeds on the reference machine (see README.md).
    contract_bound: float | None = None


END_TO_END = (
    EndToEnd("setup_s", "s", "host", "lower", 0.15, ALL,
             "wall time of build_portland_fabric, start, run_until_located, "
             "announce_hosts, run_until_registered", contract_bound=0.25),
    EndToEnd("run_s", "s", "host", "lower", 0.10, ALL,
             "wall time of the workload phase, tracing off",
             contract_bound=0.15),
    EndToEnd("wall_s", "s", "host", "lower", 0.10, ALL,
             "setup_s + run_s + oracle check", contract_bound=0.15),
    EndToEnd("peak_rss_mb", "MiB", "host", "lower", 0.10, ALL,
             "ru_maxrss of the repeat's own process", contract_bound=0.10),
    EndToEnd("failed_frac", "ratio", "sim", "lower", 0.0, ALL,
             "ops_failed / ops_attempted"),
    EndToEnd("locate_ms", "ms", "sim", "lower", 0.01, ALL,
             "simulated time until every switch knows level, pod and "
             "position", contract_bound=0.20),
    EndToEnd("register_ms", "ms", "sim", "lower", 0.01, ALL,
             "simulated time until the fabric manager holds every host "
             "(on run_until_registered's 20 ms grid)"),
    EndToEnd("completion_ms", "ms", "sim", "lower", 0.01, SHUFFLES,
             "first flow start to last flow completion"),
    EndToEnd("fct_ms_p50", "ms", "sim", "lower", 0.01, SHUFFLES,
             "median flow completion time"),
    EndToEnd("fct_ms_p90", "ms", "sim", "lower", 0.01, SHUFFLES,
             "90th-percentile flow completion time"),
    EndToEnd("goodput_gbps", "Gb/s", "sim", "higher", 0.01, SHUFFLES,
             "payload bits delivered / completion_ms"),
    EndToEnd("conv_ms_p50", "ms", "sim", "lower", 0.01, FAULTS,
             "median over (round, affected flow) of receiver outage minus "
             "the send interval"),
    EndToEnd("conv_ms_max", "ms", "sim", "lower", 0.01, FAULTS,
             "worst (round, affected flow) outage minus the send interval"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: "count": a public counter, exact for a seed. "host": timed with
    #: tracing off. "trace": from the traced run.
    source: str
    meaning: str


def _layer(prefix: str, rows) -> tuple:
    return tuple(PerLayer(f"{prefix}.{name}", unit, better, source, meaning)
                 for name, unit, better, source, meaning in rows)


PER_LAYER = (
    _layer("sim", (
        ("events", "count", "lower", "count",
         "events executed in the run phase"),
        ("events_setup", "count", "lower", "count",
         "events executed during setup"),
        ("pushes", "count", "lower", "count", "events queued"),
        ("cancellations", "count", "lower", "count", "events cancelled"),
        ("compactions", "count", "lower", "count", "heap compaction sweeps"),
        ("peak_heap", "count", "lower", "count",
         "largest heap of the whole run"),
        ("us_per_event", "us", "lower", "host", "run_s / sim.events"),
        ("sim_s_per_wall_s", "ratio", "higher", "host",
         "simulated seconds of the run phase per run_s"),
        ("self_s", "s", "lower", "trace",
         "dispatch loop: the traced window minus every event's span"),
    ))
    + _layer("net", (
        ("frames_tx", "count", "lower", "count",
         "frames sent, all ports (data and control network)"),
        ("bytes_tx", "B", "lower", "count", "wire bytes sent, all ports"),
        ("queue_drops", "count", "lower", "count",
         "frames a port refused: queue full, link cut or port down"),
        ("self_s", "s", "lower", "trace", "Link.transmit and link events"),
        ("calls", "count", "lower", "trace", "net spans"),
    ))
    + _layer("switching", (
        ("dcache_hits", "count", "higher", "count", "decision-cache hits"),
        ("dcache_misses", "count", "lower", "count",
         "decision-cache misses"),
        ("dcache_flushes", "count", "lower", "count",
         "decision-cache flushes"),
        ("pcache_compiles", "count", "lower", "count",
         "compiled-path compiles"),
        ("pcache_launches", "count", "higher", "count",
         "frames sent down a compiled path"),
        ("pcache_invalidated", "count", "lower", "count",
         "compiled paths retired"),
        ("miss_drops", "count", "lower", "count",
         "frames dropped on a table miss"),
        ("self_s", "s", "lower", "trace", "PortlandSwitch.receive"),
        ("calls", "count", "lower", "trace", "switching spans"),
    ))
    + _layer("ldp", (
        ("ldms_sent", "count", "lower", "count", "LDMs sent"),
        ("events_per_sim_s", "1/s", "lower", "count",
         "events per simulated second in the quiet tail of the run phase: "
         "the keepalive floor"),
        ("self_s", "s", "lower", "trace",
         "LDP timers and LdpProcess.on_frame"),
        ("calls", "count", "lower", "trace", "ldp spans"),
    ))
    + _layer("agent", (
        ("ctrl_msgs_tx", "count", "lower", "count",
         "messages agents sent to the fabric manager"),
        ("ctrl_bytes_tx", "B", "lower", "count", "their wire bytes"),
        ("self_s", "s", "lower", "trace",
         "PortlandAgent.on_packet_in and agent timers"),
        ("calls", "count", "lower", "trace", "agent spans"),
    ))
    + _layer("fm", (
        ("msgs_rx", "count", "lower", "count", "messages received"),
        ("msgs_tx", "count", "lower", "count", "messages sent"),
        ("bytes_tx", "B", "lower", "count", "wire bytes sent"),
        ("arp_queries", "count", "lower", "count", "proxy-ARP queries"),
        ("override_recomputes", "count", "lower", "count",
         "fault-override recompute rounds"),
        ("override_edges_examined", "count", "lower", "count",
         "destination prefixes re-derived"),
        ("override_updates_sent", "count", "lower", "count",
         "FaultUpdate messages pushed"),
        ("busy_sim_s", "s", "lower", "count",
         "simulated service time charged"),
        ("recompute_self_s", "s", "lower", "trace",
         "host time inside faults.compute_overrides"),
        ("self_s", "s", "lower", "trace",
         "fabric manager service events, receive and recomputes"),
        ("calls", "count", "lower", "trace", "fm spans"),
    ))
    + _layer("codec", (
        ("calls", "count", "lower", "trace",
         "decode_fabric, decode_ldp and FmMessage.wire_length calls"),
        ("self_s", "s", "lower", "trace", "host time inside them"),
    ))
    + _layer("host", (
        ("tcp_bytes_tx", "B", "lower", "count",
         "TCP payload bytes sent, retransmissions included"),
        ("tcp_retransmits", "count", "lower", "count",
         "segments retransmitted"),
        ("udp_tx", "count", "lower", "count", "datagrams sent by workloads"),
        ("arp_requests", "count", "lower", "count", "ARP requests sent"),
        ("unresolved_drops", "count", "lower", "count",
         "packets dropped because ARP never resolved"),
        ("self_s", "s", "lower", "trace",
         "Host.receive, TcpStack.deliver, host timers, traffic generators"),
        ("calls", "count", "lower", "trace", "host spans"),
    ))
    + _layer("flows", (
        ("recomputes", "count", "lower", "count",
         "fluid rate recomputations"),
        ("reresolutions", "count", "lower", "count", "path re-resolutions"),
        ("bottleneck_events", "count", "lower", "count",
         "bottleneck saturations"),
        ("tcp_cuts", "count", "lower", "count", "fluid TCP window cuts"),
        ("stall_events", "count", "lower", "count", "flows stalled"),
        ("allocate_self_s", "s", "lower", "trace",
         "host time inside max_min_allocate"),
        ("self_s", "s", "lower", "trace",
         "flow-engine events, start_flow and allocation"),
        ("calls", "count", "lower", "trace", "flows spans"),
    ))
    + _layer("topology", (
        ("build_s", "s", "lower", "host", "build_portland_fabric"),
        ("locate_s", "s", "lower", "host", "start + run_until_located"),
        ("register_s", "s", "lower", "host",
         "announce_hosts + run_until_registered"),
        ("switches", "count", "lower", "count", "switches built"),
        ("links", "count", "lower", "count", "data links built"),
        ("hosts", "count", "lower", "count", "hosts built"),
    ))
    + _layer("verify", (
        ("check_s", "s", "lower", "host",
         "InvariantOracle.check_now on the workload's pairs"),
        ("pairs", "count", "lower", "count", "host pairs walked"),
        ("violations", "count", "lower", "count", "must be 0"),
    ))
    + _layer("proc", (
        ("cpu_s", "s", "lower", "host",
         "process_time over setup, run and check, as measured "
         "(calibration included)"),
        ("gc_collections", "count", "lower", "host",
         "garbage-collector runs, all generations"),
        ("speed", "ratio", "higher", "host",
         "reference seconds per measured second: 1 on a quiet reference "
         "machine, lower on a busy one"),
    ))
    + _layer("trace", (
        ("overhead_ratio", "ratio", "lower", "trace",
         "traced run_s / untraced run_s"),
        ("unattributed_s", "s", "lower", "trace",
         "traced window outside every layer's spans"),
    ))
)

def end_to_end_for(workload: str) -> tuple:
    return tuple(m for m in END_TO_END if workload in m.workloads)


def contract() -> dict:
    """The metric half of BENCHMARK.json."""
    return {
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.contract_bound}
            for m in END_TO_END if m.contract_bound is not None],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
