#!/usr/bin/env python3
"""Fault tolerance demo: fail links under live traffic and watch the
fabric converge in tens of milliseconds.

A CBR UDP flow crosses pods while we cut (silently — no carrier signal,
so detection is purely LDP keepalive loss) first a core link on its
path, then the edge uplink it fails over to. The receiver's arrival
gaps are the convergence times; compare them with spanning tree's tens
of seconds.

Run:  python examples/fault_tolerance.py
"""

from repro import LinkParams, Simulator, build_portland_fabric
from repro.host.apps import UdpStreamReceiver, UdpStreamSender


def active_path(fabric, edge_name):
    """(agg, core) currently carrying the most traffic from this edge."""
    half = fabric.tree.k // 2
    edge = fabric.switches[edge_name]
    uplink = max(range(half, fabric.tree.k),
                 key=lambda i: edge.ports[i].counters.tx_frames)
    pod = int(edge_name.split("-")[1][1:])
    agg_name = f"agg-p{pod}-s{uplink - half}"
    agg = fabric.switches[agg_name]
    core_port = max(range(half, fabric.tree.k),
                    key=lambda i: agg.ports[i].counters.tx_frames)
    core_name = f"core-{(uplink - half) * half + (core_port - half)}"
    return agg_name, core_name


def main() -> None:
    sim = Simulator(seed=7)
    fabric = build_portland_fabric(
        sim, k=4, link_params=LinkParams(carrier_detect=False))
    fabric.bring_up()
    config = fabric.config
    print(f"LDP keepalives every {config.ldm_period_s * 1000:.0f} ms, "
          f"declared dead after {config.miss_threshold} misses "
          f"(~{config.ldm_period_s * config.miss_threshold * 1000:.0f} ms "
          "detection)\n")

    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[12]  # pod 0 -> pod 3
    rx = UdpStreamReceiver(dst, 5001)
    tx = UdpStreamSender(src, dst.ip, 5001, rate_pps=1000)
    tx.start()
    print(f"streaming {src.name} -> {dst.name} at 1000 pkt/s")
    sim.run(until=1.0)

    agg, core = active_path(fabric, "edge-p0-s0")
    print(f"\n[t=1.0s] cutting {agg} <-> {core} (on the flow's path)")
    fabric.link_between(agg, core).fail()
    sim.run(until=2.0)
    gap, start, _ = rx.max_gap(0.9, 2.0)
    print(f"  outage: {gap * 1000:.1f} ms starting at t={start:.3f}s")
    print(f"  fault matrix now has {len(fabric.fabric_manager.fault_matrix)}"
          " entry")

    agg2, _ = active_path(fabric, "edge-p0-s0")
    print(f"\n[t=2.0s] cutting the edge uplink edge-p0-s0 <-> {agg2}")
    fabric.link_between("edge-p0-s0", agg2).fail()
    sim.run(until=3.0)
    gap, start, _ = rx.max_gap(1.9, 3.0)
    print(f"  outage: {gap * 1000:.1f} ms starting at t={start:.3f}s")

    print("\n[t=3.0s] recovering both links")
    for link in list(fabric.links.values()):
        if link.failed:
            link.recover()
    sim.run(until=4.0)
    print(f"  fault matrix size: {len(fabric.fabric_manager.fault_matrix)}")
    late = [t for t in rx.arrival_times() if t > 3.8]
    print(f"  flow healthy again: {len(late)} packets in the last 200 ms")
    total_sent = tx.next_seq
    print(f"\ntotal: {rx.received}/{total_sent} packets delivered "
          f"({100 * rx.received / total_sent:.2f}%) across two failures")


if __name__ == "__main__":
    main()
