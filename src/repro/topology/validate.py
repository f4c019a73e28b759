"""Wiring validation and graph export for topology structures.

networkx is imported by the functions that use it, so importing this
module (as ``repro.topology`` does) does not load it.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.fattree import FatTree


def validate_tree(tree: FatTree) -> None:
    """Check structural invariants of a (fat or multi-rooted) tree.

    Raises :class:`TopologyError` on: duplicate port usage, dangling
    endpoints, disconnected fabric, or hosts wired to non-edge switches.
    """
    import networkx as nx

    switch_names = set(tree.edge_names + tree.agg_names + tree.core_names)
    if len(switch_names) != (len(tree.edge_names) + len(tree.agg_names)
                             + len(tree.core_names)):
        raise TopologyError("duplicate switch names")

    used_ports: set[tuple[str, int]] = set()
    for wire in tree.switch_wires + tree.host_wires:
        for node, port in ((wire.node_a, wire.port_a), (wire.node_b, wire.port_b)):
            if (node, port) in used_ports:
                raise TopologyError(f"port {node}[{port}] wired twice")
            used_ports.add((node, port))

    host_names = {h.name for h in tree.hosts}
    edge_names = set(tree.edge_names)
    for wire in tree.host_wires:
        if wire.node_a not in host_names:
            raise TopologyError(f"host wire from unknown host {wire.node_a!r}")
        if wire.node_b not in edge_names:
            raise TopologyError(
                f"host {wire.node_a!r} wired to non-edge {wire.node_b!r}")
    for wire in tree.switch_wires:
        for node in (wire.node_a, wire.node_b):
            if node not in switch_names:
                raise TopologyError(f"switch wire to unknown node {node!r}")

    graph = to_graph(tree, include_hosts=True)
    if graph.number_of_nodes() and not nx.is_connected(graph):
        raise TopologyError("topology is not connected")


def to_graph(tree: FatTree, include_hosts: bool = False) -> "nx.Graph":
    """Export the structure as a networkx graph (for analysis/tests)."""
    import networkx as nx

    graph = nx.Graph()
    for name in tree.edge_names:
        graph.add_node(name, level="edge")
    for name in tree.agg_names:
        graph.add_node(name, level="aggregation")
    for name in tree.core_names:
        graph.add_node(name, level="core")
    for wire in tree.switch_wires:
        graph.add_edge(wire.node_a, wire.node_b)
    if include_hosts:
        for host in tree.hosts:
            graph.add_node(host.name, level="host")
        for wire in tree.host_wires:
            graph.add_edge(wire.node_a, wire.node_b)
    return graph


def bisection_paths(tree: FatTree) -> int:
    """Count of edge-disjoint shortest paths between two sample pods —
    a quick structural sanity metric used in tests."""
    import networkx as nx

    graph = to_graph(tree)
    if len(tree.edge_names) < 2:
        return 0
    src = tree.edge_names[0]
    dst = tree.edge_names[-1]
    return nx.edge_connectivity(graph, src, dst)
