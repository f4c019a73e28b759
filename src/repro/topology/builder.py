"""Instantiate a PortLand fabric (switches + agents + FM + hosts) on a
fat-tree structure, plus the convergence helpers experiments rely on."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.flows.engine import FlowEngine
from repro.host.host import Host
from repro.net.link import Link
from repro.portland.agent import PortlandAgent
from repro.portland.config import PortlandConfig
from repro.portland.control import ControlNetwork
from repro.portland.fabric_manager import FabricManager
from repro.portland.fm_shard import FmShardCluster
from repro.portland.switch import PortlandSwitch
from repro.sim.simulator import Simulator
from repro.switching.path_cache import PathCache
from repro.topology.fattree import FatTree, WireSpec, build_fat_tree
from repro.topology.scheme import FatTreeScheme, TopologyScheme


@dataclass
class LinkParams:
    """Physical parameters applied to data-plane links (rate, delay
    and queue are :class:`~repro.net.link.Link`'s defaults)."""

    #: Whether switch-switch link failures raise carrier events. Turn
    #: off to force LDP-timeout-based detection (Fig. 10's regime).
    #: Host links always detect carrier (NIC unplug is visible).
    carrier_detect: bool = True
    #: Strict-priority per-class egress queues on every link (see
    #: docs/POLICY.md). No-op while all traffic is class 0; False
    #: degrades classed traffic to FIFO service (the bench-policy
    #: comparison arm).
    priority_queues: bool = True


@dataclass
class PortlandFabric:
    """A fully wired PortLand deployment."""

    sim: Simulator
    tree: FatTree
    config: PortlandConfig
    #: Topology scheme governing routing, fault policy and the path
    #: oracle (:class:`FatTreeScheme` unless the builder was given one).
    scheme: TopologyScheme
    switches: dict[str, PortlandSwitch] = field(default_factory=dict)
    agents: dict[str, PortlandAgent] = field(default_factory=dict)
    hosts: dict[str, Host] = field(default_factory=dict)
    links: dict[tuple[str, str], Link] = field(default_factory=dict)
    fabric_manager: FabricManager | None = None
    control: ControlNetwork | None = None
    #: Path resolution for the flow engine (None unless
    #: ``config.flow_mode``).
    path_cache: PathCache | None = None
    #: Flow-level (fluid) engine (None unless ``config.flow_mode``).
    flow_engine: FlowEngine | None = None

    def host_list(self) -> list[Host]:
        """Hosts in deterministic (spec) order."""
        return [self.hosts[spec.name] for spec in self.tree.hosts]

    def link_between(self, a: str, b: str) -> Link:
        """The data link between two named nodes."""
        link = self.links.get((a, b)) or self.links.get((b, a))
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    def rack_switch(self, name: str, num_ports: int) -> PortlandAgent:
        """Create one switch and its agent (not started) under this
        fabric's config and scheme."""
        switch = PortlandSwitch(self.sim, name, num_ports,
                                agent_delay_s=self.config.agent_delay_s)
        agent = PortlandAgent(switch, self.config, self.scheme)
        switch.attach_agent(agent)
        self.switches[name] = switch
        self.agents[name] = agent
        return agent

    def plug(self, wire: WireSpec, params: LinkParams) -> Link:
        """Create the data link ``wire`` describes (end *a* is a host for
        host wires, which always detect carrier)."""
        from_host = wire.node_a in self.hosts
        end_a = (self.hosts if from_host else self.switches)[wire.node_a]
        link = Link(
            self.sim, end_a.port(wire.port_a),
            self.switches[wire.node_b].port(wire.port_b),
            carrier_detect=from_host or params.carrier_detect,
            priority_queues=params.priority_queues)
        self.links[(wire.node_a, wire.node_b)] = link
        return link

    def start(self) -> None:
        """Start every switch agent (begins LDP)."""
        for agent in self.agents.values():
            agent.start()

    def located(self) -> bool:
        """Whether every switch has completed location discovery (and,
        for schemes that preseed locations, heard all its wired
        neighbors — preseeding makes ``location_complete`` trivially
        true before any route exists)."""
        if not all(agent.ldp.location_complete
                   for agent in self.agents.values()):
            return False
        return self.scheme.converged(self)

    def run_until_located(self, timeout_s: float = 5.0,
                          step_s: float = 0.02) -> float:
        """Run the simulation until LDP converges everywhere.

        Returns the convergence time. Raises on timeout — discovery that
        does not converge is an error worth failing loudly on.
        """
        if self.sim.run_until(self.located, self.sim.now + timeout_s, step_s):
            return self.sim.now
        missing = [name for name, agent in self.agents.items()
                   if not agent.ldp.location_complete]
        raise TopologyError(f"LDP did not converge; missing: {missing[:8]}"
                            f" (+{max(0, len(missing) - 8)} more)")

    def announce_hosts(self) -> None:
        """Have every host send a gratuitous ARP.

        Triggers edge discovery + fabric-manager registration for all
        hosts, so experiments start from a warm registry (as a
        long-running data center would be).
        """
        for host in self.hosts.values():
            host.gratuitous_arp()

    def all_hosts_registered(self) -> bool:
        """Whether the FM registry covers every host."""
        assert self.fabric_manager is not None
        return all(spec.ip in self.fabric_manager.hosts_by_ip
                   for spec in self.tree.hosts)

    def run_until_registered(self, timeout_s: float = 5.0,
                             step_s: float = 0.02) -> float:
        """Run until the FM knows every host (after announce_hosts)."""
        if self.sim.run_until(self.all_hosts_registered,
                              self.sim.now + timeout_s, step_s):
            return self.sim.now
        raise TopologyError("hosts did not register with the fabric manager")

    def bring_up(self, timeout_s: float = 5.0) -> tuple[float, float]:
        """The whole cold start: start the agents, run to full location
        discovery, announce the hosts, run until the fabric manager knows
        them all. Returns ``(located_at, registered_at)``."""
        self.start()
        located = self.run_until_located(timeout_s=timeout_s)
        self.announce_hosts()
        return located, self.run_until_registered(timeout_s=timeout_s)

    def decision_cache_stats(self) -> dict[str, int]:
        """Fabric-wide counters of the forwarding tables' verdict memos."""
        tables = [switch.table for switch in self.switches.values()]
        stats = {name: sum(getattr(t, name) for t in tables) for name in
                 ("hits", "misses", "installs", "evictions", "flushes")}
        stats["entries"] = sum(len(t.plans) for t in tables)
        return stats

    def path_cache_stats(self) -> dict[str, int]:
        """Path-resolution counters (empty dict outside flow mode)."""
        return self.path_cache.stats() if self.path_cache is not None else {}

    def flow_engine_stats(self) -> dict[str, int]:
        """Fluid-engine counters (empty dict when flow mode is off)."""
        return self.flow_engine.stats() if self.flow_engine is not None else {}

    def edge_agent_of(self, host_name: str) -> PortlandAgent:
        """The edge agent serving a named host."""
        spec = next(s for s in self.tree.hosts if s.name == host_name)
        return self.agents[spec.edge_switch]


def build_portland_fabric(
    sim: Simulator,
    k: int = 4,
    config: PortlandConfig | None = None,
    link_params: LinkParams | None = None,
    tree: FatTree | None = None,
    scheme=None,
) -> PortlandFabric:
    """Build (but do not start) a PortLand fabric.

    With no ``scheme`` this is the classic dynamically-discovered k-ary
    fat tree (:class:`~repro.topology.scheme.FatTreeScheme` over ``tree``
    or ``build_fat_tree(k)``). Passing another
    :class:`~repro.topology.scheme.TopologyScheme` switches the locator
    assignment, route resolution, and fault policy to that backend (its
    ``tree`` supplies the structure unless ``tree`` is given explicitly).
    """
    config = config or PortlandConfig()
    params = link_params or LinkParams()
    if scheme is None:
        scheme = FatTreeScheme(tree if tree is not None else build_fat_tree(k))
    if tree is None:
        tree = scheme.tree
    fabric = PortlandFabric(sim=sim, tree=tree, config=config, scheme=scheme)

    # Port counts come from the wiring (irregular multi-rooted trees have
    # different radices per level), with the fat-tree k as the floor.
    ports_needed: dict[str, int] = {}
    for wire in tree.switch_wires + tree.host_wires:
        ports_needed[wire.node_a] = max(ports_needed.get(wire.node_a, 0),
                                        wire.port_a + 1)
        ports_needed[wire.node_b] = max(ports_needed.get(wire.node_b, 0),
                                        wire.port_b + 1)
    # Flow mode resolves and invalidates flow paths through the cache.
    if config.flow_mode:
        fabric.path_cache = PathCache(sim)
    for name in tree.edge_names + tree.agg_names + tree.core_names:
        fabric.rack_switch(name, max(tree.k, ports_needed.get(name, 0)))

    for name, location in (scheme.static_locations() or {}).items():
        fabric.agents[name].ldp.preseed(
            location.level, pod=location.pod, position=location.position,
            host_ports=tuple(location.host_ports))

    # The scheme owns the fault policy; the manager just runs it.
    computer = scheme.override_computer()
    if config.fm_shards > 1:
        manager = FmShardCluster(sim, config, computer,
                                 pod_ip_plan=scheme.pod_ip_plan)
    else:
        manager = FabricManager(sim, config, computer=computer)
    fabric.fabric_manager = manager
    fabric.control = control = ControlNetwork(sim, manager)
    for agent in fabric.agents.values():
        control.connect(agent)

    for spec in tree.hosts:
        fabric.hosts[spec.name] = Host(sim, spec.name, spec.mac, spec.ip)

    for wire in tree.switch_wires + tree.host_wires:
        fabric.plug(wire, params)
    if config.flow_mode:
        fabric.flow_engine = FlowEngine(fabric)
    return fabric
