"""Structural tests for fat-tree and multi-rooted topology builders."""

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology.fattree import build_fat_tree, host_ip, host_mac
from repro.topology.multirooted import build_multirooted_tree
from repro.topology.validate import to_graph, validate_tree


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_fat_tree_counts(k):
    tree = build_fat_tree(k)
    half = k // 2
    assert len(tree.edge_names) == k * half
    assert len(tree.agg_names) == k * half
    assert len(tree.core_names) == half * half
    assert tree.num_hosts == k * half * half == k**3 // 4
    validate_tree(tree)


def test_fat_tree_rejects_odd_or_tiny_k():
    with pytest.raises(TopologyError):
        build_fat_tree(3)
    with pytest.raises(TopologyError):
        build_fat_tree(0)


def test_hosts_per_edge_leaves_spare_ports():
    tree = build_fat_tree(4, hosts_per_edge=1)
    assert tree.num_hosts == 8
    validate_tree(tree)
    with pytest.raises(TopologyError):
        build_fat_tree(4, hosts_per_edge=3)


def test_host_addressing_unique_and_unicast():
    tree = build_fat_tree(8)
    macs = {h.mac for h in tree.hosts}
    ips = {h.ip for h in tree.hosts}
    assert len(macs) == len(tree.hosts)
    assert len(ips) == len(tree.hosts)
    assert all(not h.mac.is_multicast for h in tree.hosts)
    assert str(host_ip(0, 0, 0)) == "10.0.0.2"
    assert host_mac(1, 2, 3).is_locally_administered


def test_core_group_structure():
    tree = build_fat_tree(4)
    assert tree.core_group_of_agg(0) == [0, 1]
    assert tree.core_group_of_agg(1) == [2, 3]


def test_fat_tree_link_counts():
    k = 4
    tree = build_fat_tree(k)
    half = k // 2
    # edge-agg: k pods x half x half; agg-core: same.
    assert len(tree.switch_wires) == 2 * k * half * half
    assert len(tree.host_wires) == tree.num_hosts


def test_graph_export_levels_and_connectivity():
    tree = build_fat_tree(4)
    graph = to_graph(tree, include_hosts=True)
    assert graph.number_of_nodes() == 20 + 16
    assert graph.nodes["core-0"]["level"] == "core"
    # Multipath: two edges in different pods are 2-edge-connected.
    assert nx.edge_connectivity(to_graph(tree), "edge-p0-s0",
                                "edge-p3-s1") == 2


def test_multirooted_irregular_valid():
    tree = build_multirooted_tree(num_pods=3, edges_per_pod=4,
                                  aggs_per_pod=2, cores_per_group=3,
                                  hosts_per_edge=2)
    validate_tree(tree)
    assert len(tree.core_names) == 6
    assert tree.num_hosts == 3 * 4 * 2


def test_multirooted_rejects_degenerate():
    with pytest.raises(TopologyError):
        build_multirooted_tree(1, 1, 1, 1, 1)
    with pytest.raises(TopologyError):
        build_multirooted_tree(2, 0, 1, 1, 1)


def test_validate_catches_double_wiring():
    tree = build_fat_tree(4)
    tree.switch_wires.append(tree.switch_wires[0])
    with pytest.raises(TopologyError):
        validate_tree(tree)


def test_validate_catches_host_on_core():
    tree = build_fat_tree(4)
    from repro.topology.fattree import WireSpec

    bad = WireSpec(tree.hosts[0].name, 0, "core-0", 3)
    tree.host_wires[0] = bad
    with pytest.raises(TopologyError):
        validate_tree(tree)
