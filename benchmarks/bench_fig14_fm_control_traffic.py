"""Fig. 14 — control traffic to the fabric manager vs. fabric size.

The paper estimates the ARP control load on the fabric manager as the
fabric scales to 27,648 hosts, each issuing 25 (and 100) ARP misses per
second, and concludes a commodity NIC handles it.

Here the per-request control cost is *measured* on real (simulated)
fabrics of increasing size — every ARP miss becomes an actual
ArpQuery/ArpResponse exchange in wire bytes on the control network —
then the paper's host-count sweep is reproduced from the measured
per-request byte cost (the load is exactly linear in request rate, as
the measurement across three fabric sizes confirms).

A second phase goes beyond the paper: a correlated fault-churn workload
(bursts of near-simultaneous link failures and recoveries) compares the
override push traffic of the classic immediate FM against the batched
coordinator (``fm_batch_interval_s``), gating the control-message
reduction. Writes the headline of ``BENCH_fm.json``.
"""

import time

from common import converged_portland, print_header, run_once, \
    save_results, update_bench_fm

from repro import PortlandConfig
from repro.metrics.tables import format_table
from repro.workloads.arp_workload import ArpStorm

PER_HOST_RATE = 25.0
MEASURE_S = 1.0
#: The paper's sweep.
PAPER_HOSTS = (128, 1024, 4096, 16384, 27648)

#: Fault-churn phase: rounds of near-simultaneous bursts plus one
#: flapping link (fail + recover inside a single batching window).
CHURN_ROUNDS = 4
CHURN_BURST = 3
CHURN_SPACING_S = 0.004
CHURN_FLAP_S = 0.010
CHURN_SETTLE_S = 0.3
BATCH_INTERVAL_S = 0.02


def measure_fabric(seed: int, k: int):
    fabric = converged_portland(seed, k=k, carrier=True)
    sim = fabric.sim
    fm = fabric.fabric_manager
    hosts = fabric.host_list()
    rx0, tx0 = fm.bytes_received, fm.bytes_sent
    q0 = fm.arp_queries
    storm = ArpStorm(sim, hosts, PER_HOST_RATE, sim.random.stream("fig14"))
    storm.start()
    start = sim.now
    sim.run(until=start + MEASURE_S)
    storm.stop()
    queries = fm.arp_queries - q0
    total_bytes = (fm.bytes_received - rx0) + (fm.bytes_sent - tx0)
    return len(hosts), queries, total_bytes


def measure_churn(seed: int, batch_s: float) -> dict:
    """Run the correlated fault-churn workload against one FM config.

    Each round fails CHURN_BURST edge-agg links (one per pod) a few
    milliseconds apart — well inside the batching window — flaps one
    more link (fail then recover CHURN_FLAP_S later, also inside one
    window), settles, then recovers the burst the same way. The flap is
    the canonical event batching coalesces away entirely.
    """
    config = PortlandConfig(fm_batch_interval_s=batch_s)
    fabric = converged_portland(seed, k=4, carrier=True, config=config)
    sim = fabric.sim
    fm = fabric.fabric_manager
    candidates = sorted(fabric.scheme.fault_candidate_links())
    picked, seen_pods = [], set()
    for a, b in candidates:
        if not a.startswith("edge"):
            continue
        pod = a.split("-")[1]
        if pod in seen_pods:
            continue
        seen_pods.add(pod)
        picked.append(fabric.link_between(a, b))
        if len(picked) > CHURN_BURST:
            break
    burst, flapper = picked[:CHURN_BURST], picked[CHURN_BURST]
    for _ in range(CHURN_ROUNDS):
        for i, link in enumerate(burst):
            sim.schedule(CHURN_SPACING_S * i, link.fail)
        sim.run(until=sim.now + CHURN_SETTLE_S)
        flapper.fail()
        sim.schedule(CHURN_FLAP_S, flapper.recover)
        sim.run(until=sim.now + CHURN_SETTLE_S)
        for i, link in enumerate(burst):
            sim.schedule(CHURN_SPACING_S * i, link.recover)
        sim.run(until=sim.now + CHURN_SETTLE_S)
    return {
        "messages": fm.override_updates_sent + fm.override_clears_sent,
        "recomputes": fm.override_recomputes,
        "edges_examined": fm.override_edges_examined,
        "events": sim.queue_stats()["pops"],
    }


def test_fig14_fm_control_traffic(benchmark):
    measured = []
    churn = {}

    def run():
        for k, seed in ((4, 601), (6, 602), (8, 603)):
            measured.append(measure_fabric(seed, k))
        churn["immediate"] = measure_churn(611, 0.0)
        churn["batched"] = measure_churn(611, BATCH_INTERVAL_S)

    start = time.perf_counter()
    run_once(benchmark, run)
    wall_s = time.perf_counter() - start

    rows = []
    per_request = []
    for hosts, queries, total_bytes in measured:
        rate = queries / MEASURE_S
        mbps = total_bytes * 8 / MEASURE_S / 1e6
        per_request.append(total_bytes / max(queries, 1))
        rows.append([hosts, f"{rate:.0f}", f"{mbps:.2f}",
                     f"{total_bytes / max(queries, 1):.0f}"])

    print_header("FIG 14 (measured) - fabric-manager control traffic, "
                 f"{PER_HOST_RATE:.0f} ARPs/sec/host")
    print(format_table(
        ["hosts", "ARP queries/s", "control Mb/s", "bytes/request"], rows))

    cost = sum(per_request) / len(per_request)
    paper_rows = []
    for hosts in PAPER_HOSTS:
        for rate in (25, 100):
            mbps = hosts * rate * cost * 8 / 1e6
            paper_rows.append([hosts, rate, f"{mbps:.0f}"])
    print()
    print(format_table(
        ["hosts", "ARPs/s/host", "projected control Mb/s"],
        paper_rows,
        title=("FIG 14 (projected to the paper's sweep, from the measured "
               f"per-request cost of {cost:.0f} wire bytes)"),
    ))
    print("\npaper's point: even at 27,648 hosts x 100 ARPs/s the control"
          " load fits comfortably on commodity NICs.")

    msg_ratio = churn["immediate"]["messages"] / max(
        churn["batched"]["messages"], 1)
    print()
    print(format_table(
        ["fm config", "override msgs", "recomputes", "edges examined"],
        [[name, c["messages"], c["recomputes"], c["edges_examined"]]
         for name, c in churn.items()],
        title=(f"fault churn ({CHURN_ROUNDS} rounds x {CHURN_BURST}-link "
               f"bursts): batching cuts override messages "
               f"{msg_ratio:.1f}x"),
    ))

    save_results("fig14_fm_control_traffic",
                 {"measured": measured, "bytes_per_request": cost,
                  "churn": churn})
    update_bench_fm(
        "override_churn", churn,
        headline={
            "ratio": msg_ratio,
            "events": sum(c["events"] for c in churn.values()),
            "wall_s": wall_s,
            "config": {"k": 4, "rounds": CHURN_ROUNDS,
                       "burst": CHURN_BURST,
                       "burst_spacing_s": CHURN_SPACING_S,
                       "fm_batch_interval_s": BATCH_INTERVAL_S},
        })
    # Shape assertions: per-request cost is constant (linear scaling) and
    # the full-scale projection stays below ~10 Gb/s.
    assert max(per_request) / min(per_request) < 1.3
    worst = PAPER_HOSTS[-1] * 100 * cost * 8
    assert worst < 10e9
    # And at the paper's 25 ARPs/s operating point: under ~2 Gb/s.
    assert PAPER_HOSTS[-1] * 25 * cost * 8 < 2e9
    # Fault-churn gate: a burst coalesces into fewer override pushes
    # under batching.
    assert msg_ratio >= 1.3, f"batching reduction {msg_ratio:.2f}x < 1.3x"
