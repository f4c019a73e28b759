"""Jellyfish topologies (Singla et al., NSDI'12): seeded random regular
graphs of top-of-rack switches, each also hosting servers.

Jellyfish drops the rigid fat-tree wiring in favour of a degree-``r``
random regular graph (RRG) over the switch ports left after host
attachment. The payoff the paper measures — and our benchmarks echo —
is incremental expandability (add a switch by rewiring a handful of
links) and higher path diversity at equal cost.

This module is pure structure, like :mod:`repro.topology.fattree`: it
emits the same :class:`FatTree` container (every switch listed as an
"edge", because every Jellyfish switch terminates hosts) so the generic
fabric builder can instantiate it unchanged. Routing intelligence lives
in :class:`repro.topology.scheme.JellyfishScheme`.

Port layout per switch ``jelly-i``::

    [0, hosts_per_switch)                      wired host ports
    [hosts_per_switch, +spare_host_ports)      unwired (migration targets)
    [base, base + degree)                      RRG links, base = hosts+spare
"""

from __future__ import annotations

import random

from repro.errors import TopologyError
from repro.topology.fattree import FatTree, HostSpec, WireSpec, host_ip, host_mac

#: Locators map 1:1 onto the PMAC pod field, which is capped at 8 data
#: bits before the multicast (I/G) bit position — and onto the second
#: host IP octet. 256 switches is plenty for simulation.
MAX_SWITCHES = 256


def jellyfish_name(index: int) -> str:
    return f"jelly-{index}"


def random_regular_connected(degree: int, num_switches: int, seed: int,
                             attempts: int = 64) -> "nx.Graph":
    """A connected random ``degree``-regular graph on ``num_switches``
    integer nodes, deterministic in ``seed`` (disconnected draws retry
    with ``seed + i``, so the retry chain is deterministic too)."""
    if not 2 <= degree < num_switches:
        raise TopologyError(
            f"jellyfish degree must be in [2, {num_switches - 1}], got {degree}")
    if (degree * num_switches) % 2:
        raise TopologyError("degree * num_switches must be even")
    import networkx as nx

    for i in range(attempts):
        graph = nx.random_regular_graph(degree, num_switches, seed=seed + i)
        if nx.is_connected(graph):
            return graph
    raise TopologyError(  # pragma: no cover - RRGs are a.a.s. connected
        f"no connected {degree}-regular graph in {attempts} attempts")


def expand_regular_graph(graph: "nx.Graph", new_node, seed: int = 0) -> "nx.Graph":
    """Jellyfish incremental expansion (Singla §3): splice one new node
    into an ``r``-regular graph, preserving regularity.

    ``r/2`` existing edges with pairwise-distinct endpoints are removed
    and each endpoint rewired to the new node, giving it exactly ``r``
    links while every old node keeps its degree. Requires even ``r``
    (odd ``r`` cannot keep regularity with a single added node).
    """
    degrees = {d for _n, d in graph.degree()}
    if len(degrees) != 1:
        raise TopologyError("expansion requires a regular graph")
    degree = degrees.pop()
    if degree % 2:
        raise TopologyError("expansion requires an even degree")
    if new_node in graph:
        raise TopologyError(f"node {new_node!r} already present")
    rng = random.Random(seed)
    expanded = graph.copy()
    expanded.add_node(new_node)
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    rng.shuffle(edges)
    chosen: list[tuple] = []
    used: set = set()
    for a, b in edges:
        if a in used or b in used:
            continue
        chosen.append((a, b))
        used.update((a, b))
        if len(chosen) == degree // 2:
            break
    if len(chosen) < degree // 2:
        raise TopologyError("graph too small to splice a node in")
    for a, b in chosen:
        expanded.remove_edge(a, b)
        expanded.add_edge(a, new_node)
        expanded.add_edge(b, new_node)
    return expanded


def _pack(graph: "nx.Graph", hosts_per_switch: int,
          spare_host_ports: int) -> FatTree:
    """Materialize an integer-node switch graph as a FatTree container."""
    num_switches = graph.number_of_nodes()
    degree = max(d for _n, d in graph.degree())
    base = hosts_per_switch + spare_host_ports
    tree = FatTree(k=base + degree)
    tree.edge_names.extend(jellyfish_name(i) for i in range(num_switches))

    for i in range(num_switches):
        switch = jellyfish_name(i)
        for h in range(hosts_per_switch):
            name = f"host-j{i}-{h}"
            tree.hosts.append(HostSpec(
                name=name, pod=i, edge=0, index=h,
                mac=host_mac(i, 0, h), ip=host_ip(i, 0, h),
                edge_switch=switch, edge_port=h,
            ))
            tree.host_wires.append(WireSpec(name, 0, switch, h))

    next_port = {i: base for i in graph.nodes()}
    for a, b in sorted(tuple(sorted(e)) for e in graph.edges()):
        tree.switch_wires.append(WireSpec(
            jellyfish_name(a), next_port[a], jellyfish_name(b), next_port[b]))
        next_port[a] += 1
        next_port[b] += 1
    return tree


def build_jellyfish(num_switches: int, degree: int, hosts_per_switch: int = 1,
                    seed: int = 0, spare_host_ports: int = 0) -> FatTree:
    """Construct a Jellyfish structure: ``num_switches`` ToR switches in
    a connected seeded RRG of switch-switch degree ``degree``, each with
    ``hosts_per_switch`` hosts (plus optional unwired spare host ports
    for VM-migration targets)."""
    if num_switches > MAX_SWITCHES:
        raise TopologyError(
            f"jellyfish supports at most {MAX_SWITCHES} switches")
    if num_switches < 3:
        raise TopologyError("jellyfish needs at least 3 switches")
    if hosts_per_switch < 1:
        raise TopologyError("hosts_per_switch must be >= 1")
    if spare_host_ports < 0:
        raise TopologyError("spare_host_ports must be >= 0")
    graph = random_regular_connected(degree, num_switches, seed)
    return _pack(graph, hosts_per_switch, spare_host_ports)


def expand_jellyfish(tree: FatTree, seed: int = 0) -> FatTree:
    """A new Jellyfish structure with one more switch, grown from
    ``tree`` by edge rewiring. Host/spare port counts are inferred from
    the input's port layout."""
    num_switches = len(tree.edge_names)
    if num_switches >= MAX_SWITCHES:
        raise TopologyError("jellyfish at capacity")
    hosts_per_switch = len(tree.host_wires) // num_switches
    base = min(min(w.port_a, w.port_b) for w in tree.switch_wires)
    expanded = expand_regular_graph(jellyfish_graph(tree), num_switches,
                                    seed=seed)
    return _pack(expanded, hosts_per_switch, base - hosts_per_switch)


def jellyfish_graph(tree: FatTree) -> "nx.Graph":
    """The integer-node switch graph of a Jellyfish structure."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(len(tree.edge_names)))
    index = {name: i for i, name in enumerate(tree.edge_names)}
    for wire in tree.switch_wires:
        graph.add_edge(index[wire.node_a], index[wire.node_b])
    return graph
