#!/usr/bin/env python3
"""Multicast demo: fabric-manager-computed trees and fault repair.

Receivers in three pods join a group with plain IGMP; the fabric
manager picks a core, installs one flow entry per on-tree switch, and —
when we cut a tree link — recomputes and reinstalls within the LDP
detection window.

Run:  python examples/multicast_demo.py
"""

from repro import LinkParams, Simulator, build_portland_fabric
from repro.host.apps import MulticastReceiver, MulticastSender
from repro.net import ip


def main() -> None:
    sim = Simulator(seed=24)
    fabric = build_portland_fabric(
        sim, k=4, link_params=LinkParams(carrier_detect=False))
    fabric.bring_up()

    group = ip("239.2.2.2")
    hosts = fabric.host_list()
    members = [hosts[5], hosts[9], hosts[13]]
    receivers = [MulticastReceiver(h, group, 7500) for h in members]
    print(f"receivers joined {group}: "
          + ", ".join(h.name for h in members))
    sim.run(until=sim.now + 0.2)

    sender = MulticastSender(hosts[0], group, 7500, rate_pps=1000)
    sender.start()
    print(f"sender {hosts[0].name} streaming at 1000 pkt/s")
    sim.run(until=1.0)

    fm = fabric.fabric_manager
    state = fm.multicast.groups[group]
    id_to_name = {a.switch_id: n for n, a in fabric.agents.items()}
    print(f"\ninstalled tree (core = {id_to_name[state.core]}):")
    for switch_id, ports in sorted(state.installed.items(),
                                   key=lambda kv: id_to_name[kv[0]]):
        print(f"  {id_to_name[switch_id]:12s} -> ports {list(ports)}")
    for rx in receivers:
        print(f"  {rx.host.name}: {rx.received} datagrams")

    # Cut a tree link: core -> the aggregation switch of a receiver pod.
    agg_name = next(id_to_name[sid] for sid in state.installed
                    if id_to_name[sid].startswith("agg-p3"))
    core_name = id_to_name[state.core]
    print(f"\n[t=1.0s] cutting tree link {core_name} <-> {agg_name} "
          "(silent failure)")
    fabric.link_between(core_name, agg_name).fail()
    sim.run(until=2.5)

    print("per-receiver outage around the failure:")
    for rx in receivers:
        gap, start, _ = rx.max_gap(0.9, 2.5)
        note = "affected" if gap > 0.01 else "untouched (off the failed subtree)"
        print(f"  {rx.host.name}: {gap * 1000:6.1f} ms  [{note}]")

    state = fm.multicast.groups[group]
    print(f"\ntree repaired: new core = {id_to_name[state.core]}")
    print(f"trees recomputed so far: {fm.multicast.recomputes}")


if __name__ == "__main__":
    main()
