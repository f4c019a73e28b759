"""Command-line interface: run PortLand experiments without writing code.

Installed as the ``portland-sim`` console script::

    portland-sim info --k 8              # topology facts
    portland-sim bringup --k 4           # LDP discovery timeline
    portland-sim convergence --failures 4
    portland-sim arp-load --rate 50
    portland-sim verify [LANE ... | all] # invariant fault campaign
    portland-sim flows --k 4             # fluid (flow-level) shuffle
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro import LinkParams, Simulator, build_portland_fabric
from repro.metrics.convergence import convergence_time, measure_outages
from repro.metrics.tables import format_table
from repro.portland.config import PortlandConfig
from repro.portland.messages import SwitchLevel
from repro.topology.fattree import build_fat_tree
from repro.verify.campaign import LANES, run_campaign
from repro.workloads.arp_workload import ArpStorm
from repro.workloads.failures import FailureInjector, pick_failures
from repro.workloads.traffic import UdpFlowSet, random_permutation_pairs


def _converged_fabric(k: int, seed: int, carrier: bool, config=None):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=k, config=config,
        link_params=LinkParams(carrier_detect=carrier))
    located, registered = fabric.bring_up()
    return fabric, located, registered


def cmd_info(args: argparse.Namespace) -> int:
    tree = build_fat_tree(args.k)
    half = args.k // 2
    print(format_table(
        ["property", "value"],
        [
            ["k", args.k],
            ["pods", tree.num_pods],
            ["edge switches", len(tree.edge_names)],
            ["aggregation switches", len(tree.agg_names)],
            ["core switches", len(tree.core_names)],
            ["hosts", tree.num_hosts],
            ["switch-switch links", len(tree.switch_wires)],
            ["host links", len(tree.host_wires)],
            ["ECMP paths between pods", half * half],
        ],
        title=f"k={args.k} fat tree",
    ))
    return 0


def cmd_bringup(args: argparse.Namespace) -> int:
    fabric, located, registered = _converged_fabric(args.k, args.seed, True)
    counts = {level: 0 for level in SwitchLevel}
    for agent in fabric.agents.values():
        counts[agent.level] += 1
    print(format_table(
        ["milestone", "simulated time"],
        [
            ["LDP location discovery complete", f"{located * 1000:.0f} ms"],
            ["all hosts registered with FM", f"{registered * 1000:.0f} ms"],
        ],
        title=f"zero-configuration bring-up, k={args.k}",
    ))
    print(f"\nlevels: {counts[SwitchLevel.EDGE]} edge, "
          f"{counts[SwitchLevel.AGGREGATION]} aggregation, "
          f"{counts[SwitchLevel.CORE]} core")
    return 0


def cmd_convergence(args: argparse.Namespace) -> int:
    fabric, _l, _r = _converged_fabric(args.k, args.seed, False)
    sim = fabric.sim
    hosts = fabric.host_list()
    rng = sim.random.stream("cli")
    flows = UdpFlowSet(random_permutation_pairs(hosts, rng),
                       rate_pps=args.rate)
    flows.start(stagger=0.0001)
    sim.run(until=1.0)
    links = pick_failures(fabric.tree, args.failures, rng)
    FailureInjector(sim, fabric.link_between).fail_at(1.0, links)
    sim.run(until=2.5)
    outages = measure_outages(flows.receivers(), 0.9, 2.5, 1.0 / args.rate)
    conv = convergence_time(outages, 1.0 / args.rate)
    affected = sum(1 for o in outages if o.affected)
    print(format_table(
        ["metric", "value"],
        [
            ["failures injected", args.failures],
            ["flows", len(outages)],
            ["flows affected", affected],
            ["worst-flow convergence",
             f"{conv * 1000:.1f} ms" if conv is not None else "n/a"],
        ],
        title=f"convergence after {args.failures} simultaneous silent "
              f"failures (k={args.k})",
    ))
    return 0


def cmd_arp_load(args: argparse.Namespace) -> int:
    fabric, _l, _r = _converged_fabric(args.k, args.seed, True)
    sim = fabric.sim
    fm = fabric.fabric_manager
    storm = ArpStorm(sim, fabric.host_list(), args.rate,
                     sim.random.stream("cli-storm"))
    storm.start()
    start = sim.now
    q0, b0 = fm.arp_queries, fm.bytes_received + fm.bytes_sent
    sim.run(until=start + args.duration)
    queries = fm.arp_queries - q0
    traffic = fm.bytes_received + fm.bytes_sent - b0
    print(format_table(
        ["metric", "value"],
        [
            ["hosts", len(fabric.hosts)],
            ["per-host ARP rate", f"{args.rate:.0f}/s"],
            ["queries served", queries],
            ["control traffic", f"{traffic * 8 / args.duration / 1e6:.2f} Mb/s"],
            ["FM utilization (1 core)",
             f"{100 * fm.utilization(args.duration):.2f}%"],
        ],
        title="fabric-manager ARP load",
    ))
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    from repro.workloads.shuffle import FluidShuffleWorkload
    from repro.workloads.traffic import random_permutation_pairs

    fabric, _l, _r = _converged_fabric(
        args.k, args.seed, True, config=PortlandConfig(flow_mode=True))
    sim = fabric.sim
    pairs = random_permutation_pairs(fabric.host_list(),
                                     sim.random.stream("cli-flows"))
    events_before = sim.events_executed
    shuffle = FluidShuffleWorkload(fabric, pairs=pairs,
                                   bytes_per_flow=args.bytes)
    shuffle.start()
    done_at = shuffle.run_until_done(timeout_s=args.timeout)
    elapsed = done_at - shuffle.started_at
    stats = shuffle.fct_stats()
    engine = fabric.flow_engine
    print(format_table(
        ["metric", "value"],
        [
            ["flows", len(shuffle.results)],
            ["bytes per flow", args.bytes],
            ["shuffle completion", f"{elapsed * 1000:.2f} ms"],
            ["mean / p99 FCT",
             f"{stats.mean * 1000:.2f} / {stats.p99 * 1000:.2f} ms"],
            ["aggregate goodput",
             f"{shuffle.aggregate_goodput_bps(elapsed) / 1e9:.2f} Gb/s"],
            ["simulator events", sim.events_executed - events_before],
            ["rate recomputes", engine.recomputes],
            ["path re-resolutions", engine.reresolutions],
        ],
        title=f"flow-level (fluid) permutation shuffle, k={args.k}",
    ))
    return 0


def _lane(name: str) -> str:
    # A type check rather than ``choices``: argparse checks an empty
    # ``nargs="*"`` list against ``choices`` as one value.
    if name != "all" and name not in LANES:
        raise argparse.ArgumentTypeError(
            f"unknown lane {name!r} (choose from {', '.join(LANES)}, all)")
    return name


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(LANES) if "all" in args.lanes else args.lanes or ["default"]
    status = 0
    for name in names:
        if len(names) > 1:
            print(f"== lane {name}")
        config = replace(LANES[name], seed=args.seed)
        report = run_campaign(config, log=print if not args.quiet else None)
        print(format_table(
            ["seed", "k", "steps", "checked", "violations", "verdict"],
            report.summary_rows(),
            title=f"invariant campaign ({config.scenarios} scenarios, "
                  f"{config.backend})",
        ))
        if report.ok:
            print("all invariants held")
            continue
        status = 1
        print(f"{report.violation_count} violation(s); minimal reproducers:")
        for reproducer in report.reproducers:
            print(f"  {reproducer}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portland-sim",
        description="PortLand (SIGCOMM 2009) reproduction experiments.")
    parser.add_argument("--seed", type=int, default=1, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="fat-tree topology facts")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("bringup", help="zero-config discovery timeline")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(fn=cmd_bringup)

    p = sub.add_parser("convergence", help="failure-convergence experiment")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--failures", type=int, default=1)
    p.add_argument("--rate", type=float, default=1000.0,
                   help="probe flow rate (pkt/s)")
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("arp-load", help="fabric-manager ARP load")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--rate", type=float, default=25.0,
                   help="per-host ARP misses per second")
    p.add_argument("--duration", type=float, default=1.0)
    p.set_defaults(fn=cmd_arp_load)

    p = sub.add_parser(
        "verify", help="property-based fault campaign over fabric invariants")
    p.add_argument("lanes", nargs="*", metavar="LANE", type=_lane,
                   help="campaign configurations to run, in order (default: "
                        "default; 'all' runs every lane; docs/VERIFY.md): "
                        + ", ".join(LANES))
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-scenario progress lines")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "flows", help="flow-level (fluid) permutation shuffle (docs/FLOWS.md)")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--bytes", type=int, default=1_000_000,
                   help="transfer size per flow")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="simulated-seconds budget for the shuffle")
    p.set_defaults(fn=cmd_flows)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``portland-sim`` console script."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
