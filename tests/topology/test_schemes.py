"""Structural tests for the topology backends and the scheme factory.

The conformance suite proves the backends behave identically through
the shared pipeline; these tests pin the *structures* themselves — the
two-level design search, the bipartite wiring, the Jellyfish port
layout, and the :func:`scheme_for_backend` campaign-scale mapping.
"""

import pytest

from repro.errors import TopologyError
from repro.portland.messages import SwitchLevel
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish, jellyfish_graph
from repro.topology.scheme import (
    BACKEND_NAMES,
    FatTreeScheme,
    JellyfishScheme,
    TwoLayerFatTreeScheme,
    scheme_for_backend,
)
from repro.topology.twolayer import (
    build_twolayer,
    design_twolayer,
)


# ----------------------------------------------------------------------
# Two-level design search (Solnushkin-style)


def test_design_search_minimises_switch_count():
    design = design_twolayer(48, port_counts=(8, 16, 24, 32, 48, 64))
    assert design.num_hosts >= 48
    assert design.oversubscription <= 1.0
    assert design.leaf_ports >= design.hosts_per_leaf + design.spines
    assert design.spine_ports >= design.leaves
    # No feasible design with fewer switches exists: brute-check the
    # same space the search walks.
    for leaf_ports in (8, 16, 24, 32, 48, 64):
        for uplinks in range(1, leaf_ports):
            hosts = leaf_ports - uplinks
            if hosts > uplinks:  # violates 1:1 oversubscription
                continue
            leaves = -(-48 // hosts)
            if leaves < 2 or leaves > 256 or leaves > 64:
                continue
            assert leaves + uplinks >= design.num_switches


def test_design_search_is_deterministic_and_bounded():
    first = design_twolayer(100)
    second = design_twolayer(100)
    assert first == second
    relaxed = design_twolayer(100, max_oversubscription=3.0)
    assert relaxed.num_switches <= first.num_switches
    assert relaxed.oversubscription <= 3.0


def test_design_search_rejects_infeasible():
    with pytest.raises(TopologyError):
        design_twolayer(10_000, port_counts=(8,))
    with pytest.raises(TopologyError):
        design_twolayer(1)


def test_build_twolayer_is_fully_bipartite():
    tree = build_twolayer(leaves=4, spines=3, hosts_per_leaf=2,
                          spare_host_ports=1)
    assert len(tree.edge_names) == 4
    assert len(tree.agg_names) == 3
    assert not tree.core_names
    assert len(tree.hosts) == 8
    # Every (leaf, spine) pair wired exactly once, uplinks above the
    # host + spare block.
    pairs = {(w.node_a, w.node_b) for w in tree.switch_wires}
    assert pairs == {(leaf, spine) for leaf in tree.edge_names
                     for spine in tree.agg_names}
    assert all(w.port_a >= 3 for w in tree.switch_wires)
    assert all(w.port_b == tree.edge_names.index(w.node_a)
               for w in tree.switch_wires)


# ----------------------------------------------------------------------
# Jellyfish structure


def test_jellyfish_port_layout():
    tree = build_jellyfish(8, 3, hosts_per_switch=2, seed=5,
                           spare_host_ports=1)
    assert len(tree.edge_names) == 8
    assert not tree.agg_names and not tree.core_names
    assert len(tree.hosts) == 16
    # Host ports [0, 2), spare port 2, RRG links from port 3 up.
    assert all(w.port_b in (0, 1) for w in tree.host_wires)
    assert all(min(w.port_a, w.port_b) >= 3 for w in tree.switch_wires)
    graph = jellyfish_graph(tree)
    assert all(d == 3 for _n, d in graph.degree())


def test_jellyfish_validates_inputs():
    with pytest.raises(TopologyError):
        build_jellyfish(300, 3)  # over the locator cap
    with pytest.raises(TopologyError):
        build_jellyfish(9, 3)  # odd degree sum
    with pytest.raises(TopologyError):
        build_jellyfish(4, 5)  # degree >= switches


# ----------------------------------------------------------------------
# Scheme factory + locator assignment


def test_scheme_for_backend_mapping():
    fat = scheme_for_backend("fattree", k=4, hosts_per_edge=1)
    assert isinstance(fat, FatTreeScheme)
    assert len(fat.tree.hosts) == len(fat.tree.edge_names)

    jelly = scheme_for_backend("jellyfish", k=4, topo_seed=3)
    assert isinstance(jelly, JellyfishScheme)
    assert len(jelly.tree.edge_names) == 16  # k^2 switches, degree k-1
    assert all(d == 3 for _n, d in jellyfish_graph(jelly.tree).degree())

    two = scheme_for_backend("twolayer", k=4, hosts_per_edge=2)
    assert isinstance(two, TwoLayerFatTreeScheme)
    assert len(two.tree.edge_names) == 4
    assert len(two.tree.agg_names) == 2

    with pytest.raises(TopologyError):
        scheme_for_backend("hypercube")
    assert set(BACKEND_NAMES) == {"fattree", "jellyfish", "twolayer"}


def test_jellyfish_locators_are_unique_edge_positions():
    scheme = scheme_for_backend("jellyfish", k=4, topo_seed=11)
    locations = scheme.static_locations()
    assert set(locations) == set(scheme.tree.edge_names)
    assert all(loc.level is SwitchLevel.EDGE for loc in locations.values())
    pods = [loc.pod for loc in locations.values()]
    assert len(set(pods)) == len(pods)  # locator = unique pod number
    assert all(loc.position == 0 for loc in locations.values())


def test_twolayer_locations_preseed_both_levels():
    scheme = scheme_for_backend("twolayer", k=4, hosts_per_edge=2)
    locations = scheme.static_locations()
    leaves = {n: l for n, l in locations.items() if n.startswith("leaf")}
    spines = {n: l for n, l in locations.items() if n.startswith("spine")}
    assert len(leaves) == 4 and len(spines) == 2
    assert sorted(l.position for l in leaves.values()) == [0, 1, 2, 3]
    assert all(l.level is SwitchLevel.AGGREGATION for l in spines.values())
    assert all(l.host_ports == frozenset({0, 1}) for l in leaves.values())


def test_fattree_scheme_delegates_to_reachability_oracle():
    scheme = FatTreeScheme(build_fat_tree(4))
    # Structural sanity of the shared path oracle on the classic tree:
    # k=4 has (k/2)^2 = 4 shortest inter-pod paths.
    paths = scheme.enumerate_paths("edge-p0-s0", "edge-p3-s1")
    assert len(paths) == 4
    assert all(len(p) == 5 for p in paths)
    same_pod = scheme.enumerate_paths("edge-p0-s0", "edge-p0-s1")
    assert all(len(p) == 3 for p in same_pod)
    assert scheme.host_port_capacity("edge-p0-s0") == {0, 1}
