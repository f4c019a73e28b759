"""Baseline fabrics on the same fat tree: flat L2 (+STP) and L3 ECMP.

These are the "existing techniques" columns of the paper's Table 1 and
the convergence baselines: identical topology and hosts, different
switch implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.host.host import Host
from repro.net.link import Link
from repro.sim.simulator import Simulator
from repro.switching.l3router import L3Router
from repro.switching.learning import LearningSwitch
from repro.topology.builder import LinkParams
from repro.topology.fattree import FatTree, build_fat_tree


@dataclass
class L2Fabric:
    """Flat learning-switch fabric with spanning tree."""

    sim: Simulator
    tree: FatTree
    switches: dict[str, LearningSwitch] = field(default_factory=dict)
    hosts: dict[str, Host] = field(default_factory=dict)
    links: dict[tuple[str, str], Link] = field(default_factory=dict)

    def host_list(self) -> list[Host]:
        return [self.hosts[spec.name] for spec in self.tree.hosts]

    def link_between(self, a: str, b: str) -> Link:
        link = self.links.get((a, b)) or self.links.get((b, a))
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    def stp_converged(self) -> bool:
        """True once no port is still in listening/learning transition."""
        from repro.switching.stp import PortState

        for switch in self.switches.values():
            if switch.stp is None:
                continue
            for port in switch.ports:
                if port.link is None:
                    continue
                if switch.stp.port_state(port.index) in (PortState.LISTENING,
                                                         PortState.LEARNING):
                    return False
        return True

    def run_until_stp_converged(self, timeout_s: float = 120.0,
                                step_s: float = 1.0) -> float:
        """Run until the spanning tree settles. Returns the time."""
        deadline = self.sim.now + timeout_s
        # Let the first hellos fire before testing convergence.
        self.sim.run(until=self.sim.now + step_s)
        if self.sim.run_until(self.stp_converged, deadline, step_s):
            return self.sim.now
        raise TopologyError("spanning tree did not converge")


def build_l2_fabric(
    sim: Simulator,
    k: int = 4,
    link_params: LinkParams | None = None,
    tree: FatTree | None = None,
    enable_stp: bool = True,
    stp_kwargs: dict | None = None,
) -> L2Fabric:
    """Build a flat-L2 fat tree of learning switches (+ STP)."""
    params = link_params or LinkParams()
    tree = tree or build_fat_tree(k)
    fabric = L2Fabric(sim=sim, tree=tree)

    for name in tree.edge_names + tree.agg_names + tree.core_names:
        fabric.switches[name] = LearningSwitch(sim, name, tree.k)
    for spec in tree.hosts:
        fabric.hosts[spec.name] = Host(sim, spec.name, spec.mac, spec.ip)

    _wire(sim, fabric.links, fabric.switches, fabric.hosts, tree, params)

    if enable_stp:
        for switch in fabric.switches.values():
            switch.enable_stp(**(stp_kwargs or {}))
    return fabric


@dataclass
class L3Fabric:
    """Link-state ECMP router fabric with per-edge subnets."""

    sim: Simulator
    tree: FatTree
    routers: dict[str, L3Router] = field(default_factory=dict)
    hosts: dict[str, Host] = field(default_factory=dict)
    links: dict[tuple[str, str], Link] = field(default_factory=dict)

    def host_list(self) -> list[Host]:
        return [self.hosts[spec.name] for spec in self.tree.hosts]

    def link_between(self, a: str, b: str) -> Link:
        link = self.links.get((a, b)) or self.links.get((b, a))
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    def start(self) -> None:
        """Bring all router control planes up."""
        for router in self.routers.values():
            router.start()

    def converged(self) -> bool:
        """Every router has an LSDB entry for every other router."""
        total = len(self.routers)
        return all(len(r.lsdb) >= total for r in self.routers.values())

    def run_until_converged(self, timeout_s: float = 30.0,
                            step_s: float = 0.25) -> float:
        """Run until routing converges. Returns the time."""
        if self.sim.run_until(self.converged, self.sim.now + timeout_s,
                              step_s):
            return self.sim.now
        raise TopologyError("link-state routing did not converge")

    def total_config_lines(self) -> int:
        """Operator configuration burden (Table 1 metric)."""
        return sum(r.config_lines for r in self.routers.values())


def build_l3_fabric(
    sim: Simulator,
    k: int = 4,
    link_params: LinkParams | None = None,
    tree: FatTree | None = None,
    hello_s: float = 1.0,
    dead_s: float = 3.0,
    spf_delay_s: float = 0.050,
) -> L3Fabric:
    """Build an L3 ECMP fat tree: one /24 subnet per edge router."""
    params = link_params or LinkParams()
    tree = tree or build_fat_tree(k)
    fabric = L3Fabric(sim=sim, tree=tree)

    names = tree.edge_names + tree.agg_names + tree.core_names
    for rid, name in enumerate(names, start=1):
        fabric.routers[name] = L3Router(sim, name, tree.k, router_id=rid,
                                        hello_s=hello_s, dead_s=dead_s,
                                        spf_delay_s=spf_delay_s)
    for spec in tree.hosts:
        fabric.hosts[spec.name] = Host(sim, spec.name, spec.mac, spec.ip)

    _wire(sim, fabric.links, fabric.routers, fabric.hosts, tree, params)

    # Each edge router owns 10.pod.edge.0/24 on its host ports — the
    # manual configuration step the paper's Table 1 charges L3 with.
    half = tree.k // 2
    for pod in range(tree.k):
        for e in range(half):
            router = fabric.routers[tree.edge_name(pod, e)]
            network = (10 << 24) | (pod << 16) | (e << 8)
            for port in range(half):
                router.configure_subnet(port, network, 24)
    return fabric


def _wire(sim, links, switches, hosts, tree: FatTree,
          params: LinkParams) -> None:
    for wire in tree.switch_wires:
        links[(wire.node_a, wire.node_b)] = Link(
            sim,
            switches[wire.node_a].port(wire.port_a),
            switches[wire.node_b].port(wire.port_b),
            carrier_detect=params.carrier_detect,
        )
    for wire in tree.host_wires:
        links[(wire.node_a, wire.node_b)] = Link(
            sim,
            hosts[wire.node_a].port(wire.port_a),
            switches[wire.node_b].port(wire.port_b),
        )
