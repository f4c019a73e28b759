"""Topology structures and fabric instantiation."""

from repro.topology.builder import (
    LinkParams,
    PortlandFabric,
    build_portland_fabric,
)
from repro.topology.fattree import (
    FatTree,
    HostSpec,
    WireSpec,
    build_fat_tree,
    host_ip,
    host_mac,
)

__all__ = [
    "FatTree",
    "HostSpec",
    "LinkParams",
    "PortlandFabric",
    "WireSpec",
    "build_fat_tree",
    "build_portland_fabric",
    "host_ip",
    "host_mac",
]

from repro.topology.baselines import L2Fabric, L3Fabric, build_l2_fabric, build_l3_fabric
from repro.topology.multirooted import build_multirooted_tree
from repro.topology.validate import to_graph, validate_tree

__all__ += [
    "L2Fabric",
    "L3Fabric",
    "build_l2_fabric",
    "build_l3_fabric",
    "build_multirooted_tree",
    "to_graph",
    "validate_tree",
]

from repro.topology.expansion import JellyfishExpansion, expand_jellyfish_live
from repro.topology.jellyfish import build_jellyfish, expand_jellyfish
from repro.topology.scheme import (
    BACKEND_NAMES,
    FatTreeScheme,
    JellyfishScheme,
    TopologyScheme,
    TwoLayerFatTreeScheme,
    scheme_for_backend,
)
from repro.topology.twolayer import build_twolayer

__all__ += [
    "BACKEND_NAMES",
    "FatTreeScheme",
    "JellyfishExpansion",
    "JellyfishScheme",
    "TopologyScheme",
    "TwoLayerFatTreeScheme",
    "build_jellyfish",
    "build_twolayer",
    "expand_jellyfish",
    "expand_jellyfish_live",
    "scheme_for_backend",
]
