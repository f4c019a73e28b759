"""Two-level fat trees (leaf-spine).

A two-level fat tree is the degenerate-but-ubiquitous case of the
Al-Fares construction: ``L`` leaf switches, each with ``h`` host ports
and ``u`` uplinks, fully bipartite to ``S = u`` spine switches.

Like the other topology modules this emits pure structure in the
:class:`FatTree` container: leaves as pod-0 "edge" switches, spines as
pod-0 "aggregation" switches, no cores. PMAC locators come from
:class:`repro.topology.scheme.TwoLayerFatTreeScheme`, which preseeds
every leaf's (pod=0, position=index) statically — the layout is
installed knowledge, not something to rediscover by protocol.

Leaf port layout::

    [0, hosts_per_leaf)                     wired host ports
    [hosts_per_leaf, +spare_host_ports)     unwired (migration targets)
    [base, base + spines)                   uplinks, base = hosts+spare

Spine ``j`` uses port ``i`` for leaf ``i``.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.fattree import FatTree, HostSpec, WireSpec, host_ip, host_mac

#: The position field of the PMAC caps the number of leaves.
MAX_LEAVES = 256


def leaf_name(index: int) -> str:
    return f"leaf-{index}"


def spine_name(index: int) -> str:
    return f"spine-{index}"


def build_twolayer(leaves: int, spines: int, hosts_per_leaf: int,
                   spare_host_ports: int = 0) -> FatTree:
    """Construct the two-level structure: full leaf-spine bipartite
    wiring with ``hosts_per_leaf`` hosts on every leaf."""
    if leaves < 2 or leaves > MAX_LEAVES:
        raise TopologyError(f"leaves must be in [2, {MAX_LEAVES}], got {leaves}")
    if spines < 1:
        raise TopologyError("need at least one spine")
    if hosts_per_leaf < 1:
        raise TopologyError("hosts_per_leaf must be >= 1")
    if spare_host_ports < 0:
        raise TopologyError("spare_host_ports must be >= 0")
    base = hosts_per_leaf + spare_host_ports
    tree = FatTree(k=max(base + spines, leaves))
    tree.edge_names.extend(leaf_name(i) for i in range(leaves))
    tree.agg_names.extend(spine_name(j) for j in range(spines))

    for i in range(leaves):
        leaf = leaf_name(i)
        for h in range(hosts_per_leaf):
            name = f"host-l{i}-{h}"
            tree.hosts.append(HostSpec(
                name=name, pod=0, edge=i, index=h,
                mac=host_mac(0, i, h), ip=host_ip(0, i, h),
                edge_switch=leaf, edge_port=h,
            ))
            tree.host_wires.append(WireSpec(name, 0, leaf, h))
        for j in range(spines):
            tree.switch_wires.append(WireSpec(leaf, base + j,
                                              spine_name(j), i))
    return tree
