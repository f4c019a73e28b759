"""The TopologyScheme abstraction: what a topology backend contributes.

PortLand's machinery divides cleanly into two halves. The *mechanism* —
PMAC rewriting, flow tables, the decision/path caches, the fluid flow
engine, the invariant oracle's hop bookkeeping — operates on frames,
entries, and hop lists and never needs to know what shape the fabric
is. The *policy* — how locators (PMAC pod/position) are assigned, which
routes get installed, what the fabric manager prescribes around faults,
and what the verification oracle considers reachable — is where the
topology lives. A :class:`TopologyScheme` packages the policy half so
backends can be swapped under the unchanged mechanism:

* **locator assignment** — either dynamic (return ``None`` from
  :meth:`static_locations` and let LDP discover levels/pods/positions,
  as the classic fat tree does) or static preseeding for fabrics LDP
  cannot classify (Jellyfish's uniform ToR mesh, a two-level leaf-spine
  fabric);
* **route resolution** — either the built-in up*-down* entry refresh
  (return ``None`` from :meth:`route_entries`) or an explicit per-
  destination-prefix entry set (Jellyfish's shortest-path DAG ECMP);
* **fault policy** — :meth:`override_computer` hands the fabric manager
  the object that maintains its prescriptive FaultUpdates; the agent
  asks :meth:`override_candidate_ports` which ports an override may
  select among;
* **path oracle** — :meth:`edge_reachable` (is a drop a blackhole?),
  :meth:`avoid_viable` (is an installed override minimal?), and
  :meth:`enumerate_paths` (the structural multipath set, for
  conformance tests and diversity benchmarks).

Every fabric has a scheme: :func:`~repro.topology.builder.
build_portland_fabric` resolves an omitted one to :class:`FatTreeScheme`,
whose answers at the agent-side extension points are "use the built-in
behavior" — so the default pipeline stays bit-identical to the
pre-abstraction code, which the golden-trace test pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.portland import faults
from repro.portland.messages import SwitchLevel
from repro.portland.pmac import position_prefix
from repro.portland.topology_view import FabricView
from repro.switching.stp import bridge_mac_for
from repro.topology.fattree import FatTree, build_fat_tree
from repro.topology.jellyfish import build_jellyfish
from repro.topology.twolayer import build_twolayer
from repro.topology.validate import to_graph
from repro.workloads.failures import switch_link_names


@dataclass(frozen=True)
class StaticLocation:
    """A preseeded LDP location for one switch."""

    level: SwitchLevel
    pod: int | None = None
    position: int | None = None
    #: Host-facing port indices known a priori (wired hosts only; spare
    #: ports are adopted dynamically when something plugs in).
    host_ports: frozenset[int] = field(default_factory=frozenset)


def _switch_adjacency(tree: FatTree) -> dict[str, list[str]]:
    """Switch name -> neighbouring switch names, in wiring order."""
    adjacency: dict[str, list[str]] = {
        name: [] for name in tree.edge_names + tree.agg_names + tree.core_names}
    for wire in tree.switch_wires:
        adjacency[wire.node_a].append(wire.node_b)
        adjacency[wire.node_b].append(wire.node_a)
    return adjacency


def _wired_host_ports(tree: FatTree) -> dict[str, frozenset[int]]:
    ports: dict[str, set[int]] = {}
    for wire in tree.host_wires:
        ports.setdefault(wire.node_b, set()).add(wire.port_b)
    return {name: frozenset(indices) for name, indices in ports.items()}


class TopologyScheme:
    """Base contract; methods returning ``None`` mean "use the built-in
    fat-tree behavior" at that extension point."""

    name = "abstract"
    #: Whether host IPs follow the fat-tree ``10.pod.edge.host`` plan —
    #: i.e. the second octet is a real pod that balances a by-pod
    #: registry partition. Backends without pod structure in their IPs
    #: set this False so the sharded fabric manager falls back to a
    #: stable full-IP hash for registry-owner placement (see
    #: :func:`repro.portland.fm_shard.owner_index_for_ip`).
    pod_ip_plan = True

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self._adjacency = _switch_adjacency(tree)
        #: switch name <-> 48-bit switch id (the management MAC LDP uses).
        self.id_by_name = {node: bridge_mac_for(node).value
                          for node in self._adjacency}
        self.name_by_id = {sid: node for node, sid in self.id_by_name.items()}

    # -- locator assignment -------------------------------------------

    def static_locations(self) -> dict[str, StaticLocation] | None:
        """Preseeded locations per switch name, or ``None`` for dynamic
        LDP discovery."""
        return None

    def converged(self, fabric) -> bool:
        """Whether routing state is usable (beyond ``location_complete``).

        Preseeding makes ``location_complete`` true at t=0, before any
        neighbor has been heard; backends that preseed should gate
        convergence on neighbor discovery instead.
        """
        return True

    # -- route resolution (agent side) --------------------------------

    def route_entries(self, agent) -> list[tuple] | None:
        """Explicit ``route:`` entry specs for one agent's current
        neighbor state, or ``None`` for the built-in up*-down* refresh."""
        return None

    def override_candidate_ports(self, agent) -> list[int] | None:
        """Ports a fault override may select among, or ``None`` for the
        built-in uplink set."""
        return None

    # -- fault policy (fabric-manager side) ----------------------------

    def override_computer(self):
        """The fabric manager's fault policy: maintains the prescriptive
        overrides implied by its view (``update`` / ``reset``, see
        :class:`repro.portland.faults.OverrideComputer`)."""
        return faults.OverrideComputer()

    # -- path oracle ---------------------------------------------------

    def edge_reachable(self, view: FabricView, src_edge: int,
                       dst_edge: int) -> bool:
        """Whether this scheme's forwarding discipline can deliver
        between two edge switches given the alive wiring."""
        raise NotImplementedError

    def avoid_viable(self, view: FabricView, agent, neighbor_id: int,
                     dst_edge: int) -> bool:
        """Whether an override's avoided neighbor could actually still
        deliver toward ``dst_edge`` (i.e. the override is non-minimal)."""
        raise NotImplementedError

    def enumerate_paths(self, src_edge: str, dst_edge: str,
                        limit: int | None = None) -> list[tuple[str, ...]]:
        """Structural multipath set between two edge switches (names).

        With ``limit=None``: every shortest switch path — for both tree
        levels and Jellyfish's shortest-path DAG this is exactly the
        ECMP path set healthy forwarding spreads over. With a ``limit``:
        the ``limit`` shortest simple paths (Yen), which for Jellyfish
        includes the non-minimal diversity its k-shortest-path routing
        literature measures.
        """
        if src_edge == dst_edge:
            return [(src_edge,)]
        import networkx as nx

        graph = to_graph(self.tree)
        if limit is None:
            paths = nx.all_shortest_paths(graph, src_edge, dst_edge)
        else:
            generator = nx.shortest_simple_paths(graph, src_edge, dst_edge)
            paths = (path for path, _i in zip(generator, range(limit)))
        return [tuple(path) for path in paths]

    # -- campaign / workload support -----------------------------------

    def fault_candidate_links(self) -> list[tuple[str, str]]:
        """Switch-switch links a fault campaign may fail."""
        return switch_link_names(self.tree)

    def host_port_capacity(self, edge_name: str) -> set[int]:
        """All host-capable port indices on one edge switch (wired or
        spare) — the migration planner's target pool."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------

    def _alive_distances(self, view: FabricView, dst_id: int) -> dict[int, int]:
        """BFS hop counts to ``dst_id`` over the view's alive links."""
        dist = {dst_id: 0}
        frontier = [dst_id]
        while frontier:
            nxt: list[int] = []
            for node in frontier:
                for nbr in view.neighbors_of(node).values():
                    if (nbr in dist or nbr not in view.switches
                            or not view.alive(node, nbr)):
                        continue
                    dist[nbr] = dist[node] + 1
                    nxt.append(nbr)
            frontier = nxt
        return dist

    def _all_neighbors_heard(self, fabric) -> bool:
        """Every switch's LDP neighbor table covers its wired links."""
        for node, nbrs in self._adjacency.items():
            agent = fabric.agents[node]
            heard = {info.switch_id
                     for info in agent.ldp.neighbors.values()}
            expected = {self.id_by_name[nbr] for nbr in nbrs}
            if not expected <= heard:
                return False
        return True


class FatTreeScheme(TopologyScheme):
    """The classic 3-tier fat tree — the default scheme.

    Pure delegation: dynamic LDP discovery, built-in entry refresh, the
    tree-level override computer, and the up*-down* reachability oracle.
    """

    name = "fattree"

    def edge_reachable(self, view: FabricView, src_edge: int,
                       dst_edge: int) -> bool:
        # Imported per-call: repro.verify imports repro.topology back.
        from repro.verify import reachability

        return reachability.edge_reachable(view, src_edge, dst_edge)

    def avoid_viable(self, view: FabricView, agent, neighbor_id: int,
                     dst_edge: int) -> bool:
        from repro.verify import reachability

        if agent.level is SwitchLevel.EDGE:
            return reachability.deliverable_via_agg(view, neighbor_id, dst_edge)
        if agent.level is SwitchLevel.AGGREGATION:
            return reachability.deliverable_via_core(view, neighbor_id, dst_edge)
        return False

    def host_port_capacity(self, edge_name: str) -> set[int]:
        return set(range(self.tree.k // 2))


class TwoLayerFatTreeScheme(FatTreeScheme):
    """A two-level leaf-spine fabric from
    :func:`~repro.topology.twolayer.build_twolayer`.

    Reuses the entire fat-tree pipeline — the two-level tree *is* a fat
    tree whose pods all collapsed into pod 0 and whose core layer is
    empty — but preseeds locations: the fabric's layout is known at
    build time, and LDP's edge/aggregation classifier cannot run
    without a third level to anchor the hierarchy (spines would
    classify fine, but leaf position arbitration and pod requests add
    convergence time for information the builder already has).
    """

    name = "twolayer"
    #: Every host lives in pod 0, so by-pod placement would pin the
    #: whole registry onto shard 0.
    pod_ip_plan = False

    def __init__(self, tree: FatTree) -> None:
        super().__init__(tree)
        self._host_ports = _wired_host_ports(tree)
        # Host capacity = the contiguous low leaf port range below the
        # first uplink (wired hosts + spare migration targets).
        base = min(w.port_a for w in tree.switch_wires
                   if w.node_a in set(tree.edge_names))
        self._capacity = set(range(base))

    def static_locations(self) -> dict[str, StaticLocation]:
        locations = {}
        for index, leaf in enumerate(self.tree.edge_names):
            locations[leaf] = StaticLocation(
                SwitchLevel.EDGE, pod=0, position=index,
                host_ports=self._host_ports.get(leaf, frozenset()))
        for spine in self.tree.agg_names:
            locations[spine] = StaticLocation(SwitchLevel.AGGREGATION, pod=0)
        return locations

    def converged(self, fabric) -> bool:
        return self._all_neighbors_heard(fabric)

    def host_port_capacity(self, edge_name: str) -> set[int]:
        return set(self._capacity)


#: Backend names accepted by :func:`scheme_for_backend` (and the CLI).
BACKEND_NAMES = ("fattree", "jellyfish", "twolayer")


def scheme_for_backend(backend: str, k: int = 4, hosts_per_edge: int = 1,
                       topo_seed: int = 0):
    """Campaign-scale scheme factory.

    Maps the fat-tree degree ``k`` onto a comparably sized instance of
    each backend, so one campaign knob drives all three:

    * ``fattree``  — the k-ary fat tree, ``hosts_per_edge`` hosts wired
      per edge switch;
    * ``jellyfish`` — ``k²`` switches in a ``(k-1)``-regular seeded RRG,
      ``hosts_per_edge`` hosts each, one spare host port for migration;
    * ``twolayer`` — ``k`` leaves × ``k/2`` spines, ``hosts_per_edge``
      hosts per leaf, one spare host port.

    ``topo_seed`` only matters for jellyfish (the RRG draw); passing the
    scenario seed makes every campaign scenario's graph replayable.
    """
    if backend == "fattree":
        return FatTreeScheme(build_fat_tree(k, hosts_per_edge=hosts_per_edge))
    if backend == "jellyfish":
        tree = build_jellyfish(k * k, k - 1, hosts_per_switch=hosts_per_edge,
                               seed=topo_seed, spare_host_ports=1)
        return JellyfishScheme(tree)
    if backend == "twolayer":
        tree = build_twolayer(leaves=k, spines=max(2, k // 2),
                              hosts_per_leaf=hosts_per_edge,
                              spare_host_ports=1)
        return TwoLayerFatTreeScheme(tree)
    raise TopologyError(
        f"unknown topology backend {backend!r}; expected one of {BACKEND_NAMES}")


class _FullRecompute:
    """The smallest override computer: every update recomputes in full."""

    def __init__(self, compute) -> None:
        self._compute = compute
        self.edges_examined = 0

    def reset(self) -> None:
        """Nothing is kept between updates."""

    def update(self, view: FabricView, changed_links=None,
               changed_switches=None) -> faults.Overrides:
        self.edges_examined += len(view.edges())
        return self._compute(view)


class JellyfishScheme(TopologyScheme):
    """Jellyfish: random regular ToR graph, shortest-path-DAG ECMP.

    Every switch is an edge switch; its PMAC locator is
    ``pod = switch index``, ``position = 0``, so the existing 24-bit
    position prefix doubles as a per-ToR locator prefix and PMAC
    allocation/rewriting work unchanged.

    Installed routing is the *shortest-path DAG*: for each destination
    prefix a ``route:`` entry ECMP-hashes over exactly the neighbors
    strictly closer (in the static structure) to the destination. Every
    hop strictly decreases the distance, so forwarding is loop-free by
    construction — the Jellyfish analogue of up*-down*'s monotone
    descent argument. Under faults the fabric manager re-derives each
    (switch, destination) next-hop set on the alive graph and pushes an
    override exactly where it differs from the static DAG; non-minimal
    k-shortest paths appear only in :meth:`enumerate_paths` (the
    diversity oracle), never in installed tables.
    """

    name = "jellyfish"
    #: The "pod" here is a flat ToR index, not a pod: it has no
    #: locality the by-pod partition could exploit, and it wraps at the
    #: IP octet for large graphs — hash the full IP instead.
    pod_ip_plan = False

    def __init__(self, tree: FatTree) -> None:
        super().__init__(tree)
        self._host_ports = _wired_host_ports(tree)
        base = min(min(w.port_a, w.port_b) for w in tree.switch_wires)
        self._capacity = set(range(base))
        #: switch name -> PMAC locator (== index; build_jellyfish caps
        #: the switch count below the pod field's I/G-bit ceiling).
        self.locator = {node: i for i, node in enumerate(tree.edge_names)}
        import networkx as nx

        self._dist = dict(nx.all_pairs_shortest_path_length(to_graph(tree)))
        #: (src name, dst name) -> static next-hop neighbor names.
        self._next_hops: dict[tuple[str, str], tuple[str, ...]] = {}
        for src in tree.edge_names:
            for dst in tree.edge_names:
                if src == dst:
                    continue
                here = self._dist[src][dst]
                self._next_hops[(src, dst)] = tuple(sorted(
                    nbr for nbr in self._adjacency[src]
                    if self._dist[nbr][dst] == here - 1))

    def rewire(self, tree: FatTree) -> None:
        """Adopt an expanded structure in place (live expansion).

        Every consumer — agents resolving :meth:`route_entries`, the
        fabric manager computing overrides, the oracle's reachability
        checks — holds a reference to *this* scheme object, so
        recomputing the derived state in place (graph, locators,
        distance table, next-hop DAG) repoints them all at once.
        Existing switches keep their locators: :func:`expand_jellyfish`
        appends the new switch to ``edge_names``, and locators are
        enumeration order.
        """
        JellyfishScheme.__init__(self, tree)

    # -- locator assignment -------------------------------------------

    def static_locations(self) -> dict[str, StaticLocation]:
        return {
            node: StaticLocation(
                SwitchLevel.EDGE, pod=self.locator[node], position=0,
                host_ports=self._host_ports.get(node, frozenset()))
            for node in self.tree.edge_names
        }

    def converged(self, fabric) -> bool:
        return self._all_neighbors_heard(fabric)

    # -- route resolution ----------------------------------------------

    def route_entries(self, agent) -> list[tuple]:
        from repro.portland import forwarding as fwd

        me = agent.switch.name
        live_port: dict[str, int] = {}
        for port, info in agent.ldp.neighbors.items():
            if info.switch_id in agent.fm_blocked_neighbors:
                continue
            nbr = self.name_by_id.get(info.switch_id)
            if nbr is not None:
                live_port[nbr] = port
        specs = []
        for dst in self.tree.edge_names:
            if dst == me:
                continue
            ports = tuple(sorted(
                live_port[nbr] for nbr in self._next_hops[(me, dst)]
                if nbr in live_port))
            specs.append(fwd.route_entry(self.locator[dst], 0, ports))
        return specs

    def override_candidate_ports(self, agent) -> list[int]:
        return [port for port, info in sorted(agent.ldp.neighbors.items())
                if info.switch_id not in agent.fm_blocked_neighbors]

    # -- fault policy --------------------------------------------------

    def override_computer(self):
        return _FullRecompute(self.compute_overrides)

    def compute_overrides(self, view: FabricView) -> faults.Overrides:
        """Alive-graph BFS per destination: there are no tree levels for
        the incremental computer's relevance sets to key on."""
        overrides: faults.Overrides = {}
        if not view.failed:
            return overrides
        for dst in self.tree.edge_names:
            dst_id = self.id_by_name[dst]
            if dst_id not in view.switches:
                continue
            alive_dist = self._alive_distances(view, dst_id)
            value, bits = position_prefix(self.locator[dst], 0)
            prefix = (value.value, bits)
            for src in self.tree.edge_names:
                if src == dst:
                    continue
                src_id = self.id_by_name[src]
                if src_id not in view.switches:
                    continue
                phys = set(view.neighbors_of(src_id).values())
                live = {nbr for nbr in phys if view.alive(src_id, nbr)}
                here = alive_dist.get(src_id)
                if here is None:
                    allowed: set[int] = set()
                else:
                    allowed = {nbr for nbr in live
                               if alive_dist.get(nbr, here) < here}
                static_live = {
                    self.id_by_name[nbr]
                    for nbr in self._next_hops[(src, dst)]
                } & live
                if allowed == static_live:
                    continue  # local pruning of dead links suffices
                overrides.setdefault(src_id, {})[prefix] = phys - allowed
        return overrides

    # -- path oracle ---------------------------------------------------

    def edge_reachable(self, view: FabricView, src_edge: int,
                       dst_edge: int) -> bool:
        if src_edge == dst_edge:
            return True
        return src_edge in self._alive_distances(view, dst_edge)

    def avoid_viable(self, view: FabricView, agent, neighbor_id: int,
                     dst_edge: int) -> bool:
        # An avoided neighbor is wrongly forbidden iff it is on the
        # alive shortest-path DAG toward the destination.
        alive_dist = self._alive_distances(view, dst_edge)
        here = alive_dist.get(agent.switch_id)
        there = alive_dist.get(neighbor_id)
        return here is not None and there is not None and there < here

    # -- campaign support ----------------------------------------------

    def fault_candidate_links(self) -> list[tuple[str, str]]:
        # Every switch-switch link is fair game; the edge-agg/agg-core
        # taxonomy of :func:`switch_link_names` has no meaning here.
        return sorted((wire.node_a, wire.node_b)
                      for wire in self.tree.switch_wires)

    def host_port_capacity(self, edge_name: str) -> set[int]:
        return set(self._capacity)
