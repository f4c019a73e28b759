#!/usr/bin/env python3
"""VM migration demo: a TCP flow follows its endpoint across the fabric.

A bulk TCP transfer streams into a "VM". Mid-flow, the VM migrates to an
edge switch in a different pod (keeping its IP and MAC). PortLand's
machinery — re-registration, fabric-manager invalidation, the old
edge's trap + unicast gratuitous ARP — repoints the sender without
breaking the connection.

Run:  python examples/vm_migration.py
"""

from repro import Simulator, build_portland_fabric
from repro.host.apps import TcpBulkSender, TcpSink
from repro.portland.migration import VmMigration
from repro.topology import build_fat_tree


def main() -> None:
    sim = Simulator(seed=11)
    # One host per edge leaves a spare port on every edge switch —
    # somewhere for the VM to land.
    tree = build_fat_tree(4, hosts_per_edge=1)
    fabric = build_portland_fabric(sim, tree=tree)
    fabric.bring_up()

    hosts = fabric.host_list()
    vm, sender = hosts[7], hosts[0]
    fm = fabric.fabric_manager
    print(f"VM {vm.name} (ip {vm.ip}) starts at edge-p3-s1")
    print(f"  PMAC: {fm.hosts_by_ip[vm.ip].pmac}")

    sink = TcpSink(vm, 9000, rate_bin_s=0.1)
    bulk = TcpBulkSender(sender, vm.ip, 9000)
    sim.run(until=1.0)
    print(f"\n[t=1.0s] TCP flow {sender.name} -> {vm.name} at "
          f"{sink.total_bytes * 8 / 1e9:.2f} Gbit transferred; migrating "
          "(200 ms stop-and-copy) to edge-p1-s0 ...")

    migration = VmMigration(fabric, vm.name, new_edge="edge-p1-s0",
                            new_port=1, downtime_s=0.2)
    migration.start()
    sim.run(until=4.0)

    record = fm.hosts_by_ip[vm.ip]
    print(f"\nafter migration:")
    print(f"  new PMAC: {record.pmac} (same IP {record.ip}, same AMAC)")
    print(f"  sender's ARP cache now maps {vm.ip} -> "
          f"{sender.arp_cache.lookup(vm.ip, sim.now)}")
    print(f"  TCP connection state: {bulk.conn.state.value} "
          f"(survived; {bulk.conn.segments_retransmitted} retransmissions)")

    print("\ngoodput timeline (100 ms bins):")
    for t, v in sink.goodput_series(0.5, 4.0, ):
        bar = "#" * int(v * 8 / 1e9 * 40)
        print(f"  t={t:4.1f}s {v * 8 / 1e6:7.1f} Mb/s {bar}")


if __name__ == "__main__":
    main()
