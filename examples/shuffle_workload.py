#!/usr/bin/env python3
"""MapReduce-style shuffle: the east-west workload from the paper's intro.

Runs an all-to-all TCP transfer (every host sends to every other host)
over a PortLand fat tree, twice: once with the normal ECMP forwarding
and once with every switch pinned to a single uplink. The flow-
completion-time distribution shows why multipath fabrics exist — and
why PortLand keeps ECMP while remaining plug-and-play layer 2.

Run:  python examples/shuffle_workload.py
"""

from repro import Simulator, build_portland_fabric
from repro.metrics.tables import format_table
from repro.portland import forwarding as fwd
from repro.workloads.shuffle import ShuffleWorkload

BYTES_PER_FLOW = 50_000


def run_shuffle(pin_single_path: bool) -> dict:
    sim = Simulator(seed=5)
    fabric = build_portland_fabric(sim, k=4)
    fabric.bring_up()
    if pin_single_path:
        for agent in fabric.agents.values():
            up = agent.ldp.up_ports()
            if up:
                spec = fwd.default_up((up[0],))
                agent.switch.table.remove_by_name("default-up")
                agent.switch.table.install(spec[0], spec[1], spec[2], spec[3])

    shuffle = ShuffleWorkload(sim, fabric.host_list(),
                              bytes_per_flow=BYTES_PER_FLOW)
    start = sim.now
    shuffle.start()
    end = shuffle.run_until_done(timeout_s=120.0)
    stats = shuffle.fct_stats()
    return {
        "flows": shuffle.num_flows,
        "makespan": end - start,
        "fct_mean": stats.mean,
        "fct_p50": stats.p50,
        "fct_p99": stats.p99,
        "goodput": shuffle.aggregate_goodput_bps(end - start),
    }


def main() -> None:
    print(f"all-to-all shuffle, 16 hosts x {BYTES_PER_FLOW // 1000} KB "
          "to each of 15 peers (240 TCP flows)\n")
    print("running with ECMP (PortLand default) ...")
    ecmp = run_shuffle(pin_single_path=False)
    print("running with a single pinned uplink per switch ...")
    single = run_shuffle(pin_single_path=True)

    def row(label, r):
        return [label, f"{r['makespan'] * 1000:.0f}",
                f"{r['fct_mean'] * 1000:.1f}", f"{r['fct_p50'] * 1000:.1f}",
                f"{r['fct_p99'] * 1000:.1f}", f"{r['goodput'] / 1e9:.2f}"]

    print()
    print(format_table(
        ["forwarding", "makespan (ms)", "FCT mean (ms)", "p50", "p99",
         "aggregate Gb/s"],
        [row("ECMP multipath", ecmp), row("single uplink", single)],
    ))
    speedup = single["makespan"] / ecmp["makespan"]
    print(f"\nECMP finishes the shuffle {speedup:.1f}x faster — the fat"
          " tree's bisection bandwidth is only reachable with multipath"
          " forwarding, which flat L2 (one spanning tree) cannot use.")


if __name__ == "__main__":
    main()
