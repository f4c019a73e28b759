"""The k-ary fat-tree structure (Al-Fares et al.), PortLand's canonical
topology.

This module is pure structure — names, coordinates, and the wiring list
— independent of which switch implementation gets instantiated on it.

For even ``k``: ``k`` pods, each with ``k/2`` edge and ``k/2``
aggregation switches; ``(k/2)²`` cores; ``k³/4`` hosts. Aggregation
switch ``a`` of every pod connects to cores ``a·k/2 … a·k/2 + k/2 − 1``
(its *core group*), which is what makes core index ↔ pod wiring regular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.net.addresses import IPv4Address, MacAddress


@dataclass(frozen=True)
class HostSpec:
    """One host's place in the fat tree."""

    name: str
    pod: int
    edge: int
    index: int
    mac: MacAddress
    ip: IPv4Address
    #: (edge switch name, edge port it plugs into)
    edge_switch: str
    edge_port: int


@dataclass(frozen=True)
class WireSpec:
    """One physical link: (node_a, port_a) <-> (node_b, port_b)."""

    node_a: str
    port_a: int
    node_b: str
    port_b: int


@dataclass
class FatTree:
    """Structural description of a k-ary fat tree."""

    k: int
    edge_names: list[str] = field(default_factory=list)
    agg_names: list[str] = field(default_factory=list)
    core_names: list[str] = field(default_factory=list)
    hosts: list[HostSpec] = field(default_factory=list)
    switch_wires: list[WireSpec] = field(default_factory=list)
    host_wires: list[WireSpec] = field(default_factory=list)

    @property
    def num_pods(self) -> int:
        return self.k

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def edge_name(self, pod: int, index: int) -> str:
        return f"edge-p{pod}-s{index}"

    def agg_name(self, pod: int, index: int) -> str:
        return f"agg-p{pod}-s{index}"

    def core_name(self, index: int) -> str:
        return f"core-{index}"

    def core_group_of_agg(self, agg_index: int) -> list[int]:
        """Core indices wired to aggregation index ``agg_index``."""
        half = self.k // 2
        return list(range(agg_index * half, (agg_index + 1) * half))

    def hosts_in_pod(self, pod: int) -> list[HostSpec]:
        return [h for h in self.hosts if h.pod == pod]


def host_mac(pod: int, edge: int, index: int) -> MacAddress:
    """The deterministic AMAC for a host: locally administered, unicast."""
    value = (0x02 << 40) | (pod << 16) | (edge << 8) | index
    return MacAddress(value)


def host_ip(pod: int, edge: int, index: int) -> IPv4Address:
    """10.pod.edge.(index+2) — readable and collision-free for k ≤ 255."""
    if pod > 255 or edge > 255 or index > 253:
        raise TopologyError("fat tree too large for the 10.x.y.z host plan")
    return IPv4Address((10 << 24) | (pod << 16) | (edge << 8) | (index + 2))


def build_fat_tree(k: int, hosts_per_edge: int | None = None) -> FatTree:
    """Construct the structural description of a k-ary fat tree.

    ``hosts_per_edge`` defaults to the full k/2; passing fewer leaves
    spare (unwired) host ports on every edge switch — useful as VM
    migration targets.
    """
    if k < 2 or k % 2:
        raise TopologyError(f"fat-tree k must be even and >= 2, got {k}")
    half = k // 2
    if hosts_per_edge is None:
        hosts_per_edge = half
    if not 1 <= hosts_per_edge <= half:
        raise TopologyError(
            f"hosts_per_edge must be in [1, {half}], got {hosts_per_edge}")
    tree = FatTree(k=k)

    for pod in range(k):
        for s in range(half):
            tree.edge_names.append(tree.edge_name(pod, s))
            tree.agg_names.append(tree.agg_name(pod, s))
    for c in range(half * half):
        tree.core_names.append(tree.core_name(c))

    # Hosts: edge ports 0..half-1 face hosts, half..k-1 face aggregation.
    for pod in range(k):
        for e in range(half):
            edge = tree.edge_name(pod, e)
            for i in range(hosts_per_edge):
                name = f"host-p{pod}-e{e}-{i}"
                tree.hosts.append(HostSpec(
                    name=name, pod=pod, edge=e, index=i,
                    mac=host_mac(pod, e, i), ip=host_ip(pod, e, i),
                    edge_switch=edge, edge_port=i,
                ))
                tree.host_wires.append(WireSpec(name, 0, edge, i))

    # Edge <-> aggregation (full bipartite inside each pod).
    for pod in range(k):
        for e in range(half):
            for a in range(half):
                tree.switch_wires.append(WireSpec(
                    tree.edge_name(pod, e), half + a,
                    tree.agg_name(pod, a), e,
                ))

    # Aggregation <-> core.
    for pod in range(k):
        for a in range(half):
            for j in range(half):
                core_index = a * half + j
                tree.switch_wires.append(WireSpec(
                    tree.agg_name(pod, a), half + j,
                    tree.core_name(core_index), pod,
                ))
    return tree
