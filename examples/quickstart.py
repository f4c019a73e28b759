#!/usr/bin/env python3
"""Quickstart: bring up a PortLand fabric and send traffic across it.

Builds a k=4 fat tree (20 switches, 16 hosts), lets LDP discover every
switch's location with zero configuration, registers the hosts with the
fabric manager, then runs a ping and a cross-pod TCP transfer.

Run:  python examples/quickstart.py
"""

from repro import Simulator, build_portland_fabric
from repro.host.apps import TcpBulkSender, TcpSink, UdpEchoServer, UdpPinger
from repro.portland.messages import SwitchLevel
from repro.portland.pmac import Pmac


def main() -> None:
    sim = Simulator(seed=42)
    fabric = build_portland_fabric(sim, k=4)
    located_at, _registered_at = fabric.bring_up()

    print(f"LDP converged in {located_at * 1000:.0f} ms of simulated time:")
    for level in (SwitchLevel.EDGE, SwitchLevel.AGGREGATION, SwitchLevel.CORE):
        count = sum(1 for a in fabric.agents.values() if a.level is level)
        print(f"  {count:2d} {level.name.lower()} switches")

    fm = fabric.fabric_manager
    print(f"fabric manager knows {len(fm.hosts_by_ip)} hosts")

    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]
    print(f"\nping {src.name} ({src.ip}) -> {dst.name} ({dst.ip}):")
    UdpEchoServer(dst, 7)
    pinger = UdpPinger(src, dst.ip)
    pinger.ping()
    sim.run(until=sim.now + 0.1)
    print(f"  rtt = {pinger.rtts[0][1] * 1e6:.0f} us "
          f"(first packet: includes proxy-ARP resolution via the FM)")
    pinger.ping()
    sim.run(until=sim.now + 0.1)
    print(f"  rtt = {pinger.rtts[1][1] * 1e6:.0f} us (warm ARP cache)")

    pmac = src.arp_cache.lookup(dst.ip, sim.now)
    decoded = Pmac.from_mac(pmac)
    print(f"\n{src.name} believes {dst.ip} is at {pmac}")
    print(f"  ...which is really the PMAC {decoded} — the host's location,"
          " not its hardware address")
    print(f"  (the real AMAC is {dst.mac}; the edge switch rewrites)")

    print(f"\nbulk TCP {hosts[1].name} -> {hosts[14].name} for 0.5 s:")
    sink = TcpSink(hosts[14], 9000, rate_bin_s=0.1)
    TcpBulkSender(hosts[1], hosts[14].ip, 9000)
    start = sim.now
    sim.run(until=start + 0.5)
    goodput = sink.total_bytes * 8 / 0.5 / 1e9
    print(f"  goodput = {goodput:.2f} Gb/s on 1 Gb/s links")

    print(f"\nforwarding state (the O(k) claim):")
    for name in ("edge-p0-s0", "agg-p0-s0", "core-0"):
        switch = fabric.switches[name]
        print(f"  {name:12s} {len(switch.table):2d} forwarding entries,"
              f" {len(switch.rewrite_table):2d} rewrite entries")


if __name__ == "__main__":
    main()
