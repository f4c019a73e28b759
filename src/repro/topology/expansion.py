"""Live Jellyfish expansion: splice a new ToR into a *running* fabric.

:func:`repro.topology.jellyfish.expand_jellyfish` grows the static
structure; this module performs the same Singla §3 rewiring on a fabric
that is already simulating — the property the Jellyfish paper sells as
incremental expandability. The physical sequence mirrors what a cabling
crew would do:

1. Pick ``r/2`` pairwise-disjoint existing links and *unplug* them
   (:meth:`Link.detach` — carrier drops, LDP prunes the neighbor,
   compiled paths through the link are invalidated, the fabric manager
   learns of the loss).
2. Rack the new switch and wire each freed port to it, preserving every
   surviving link's port numbering (unlike ``_pack``, which renumbers).
3. Update the shared :class:`JellyfishScheme` in place
   (:meth:`~repro.topology.scheme.JellyfishScheme.rewire`) — the planned
   expansion's new routing tables — and refresh every agent's entries.
4. Start the new switch's agent (preseeded, like any generated design)
   and connect it to the control network.
5. After the edge-adoption grace period, the new hosts announce
   themselves with gratuitous ARPs and register with the fabric manager.

Between steps 1 and the refreshes the fabric is transiently degraded
exactly as it would be for real — frames in flight on spliced links are
lost, routes re-converge as LDMs from the new switch are heard — and
the invariant oracle is expected to come back clean once settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.host.host import Host
from repro.portland.ldp import edge_detect_s
from repro.topology.builder import LinkParams, PortlandFabric
from repro.topology.fattree import (
    FatTree,
    HostSpec,
    WireSpec,
    host_ip,
    host_mac,
)
from repro.topology.jellyfish import (
    MAX_SWITCHES,
    expand_regular_graph,
    jellyfish_graph,
    jellyfish_name,
)


@dataclass
class JellyfishExpansion:
    """What one live expansion did to the fabric."""

    new_switch: str
    #: Switch-switch links unplugged to free ports ((name, name) pairs,
    #: each sorted) — gone from ``fabric.links``; campaigns must drop
    #: them from their fault bookkeeping.
    spliced: list[tuple[str, str]] = field(default_factory=list)
    #: Names of the hosts racked with the new switch.
    hosts: list[str] = field(default_factory=list)
    #: When the new hosts announce themselves (gratuitous ARP).
    announce_at: float = 0.0


def expand_jellyfish_live(fabric: PortlandFabric, seed: int = 0,
                          link_params: LinkParams | None = None,
                          ) -> JellyfishExpansion:
    """Splice one new ToR switch (plus its hosts) into a running
    Jellyfish fabric. Raises :class:`TopologyError` if the fabric is not
    a Jellyfish or its degree is odd (single-node splices cannot keep an
    odd-degree graph regular)."""
    scheme = fabric.scheme
    if scheme.name != "jellyfish":
        raise TopologyError("live expansion requires a Jellyfish fabric")
    tree = fabric.tree
    num_switches = len(tree.edge_names)
    if num_switches >= MAX_SWITCHES:
        raise TopologyError("jellyfish at capacity")
    sim = fabric.sim
    config = fabric.config
    params = link_params or LinkParams()

    graph = jellyfish_graph(tree)
    new_index = num_switches
    new_name = jellyfish_name(new_index)
    # Raises on odd degree or a graph too small to splice into.
    expanded = expand_regular_graph(graph, new_index, seed=seed)
    removed = ({frozenset(edge) for edge in graph.edges()}
               - {frozenset(edge) for edge in expanded.edges()})

    index_of = {name: i for i, name in enumerate(tree.edge_names)}
    kept_wires: list[WireSpec] = []
    spliced_wires: list[WireSpec] = []
    for wire in tree.switch_wires:
        key = frozenset((index_of[wire.node_a], index_of[wire.node_b]))
        (spliced_wires if key in removed else kept_wires).append(wire)
    degree = 2 * len(spliced_wires)
    base = min(min(w.port_a, w.port_b) for w in tree.switch_wires)
    hosts_per_switch = len(tree.host_wires) // num_switches

    # Rack the new switch (agent not started yet; ports must exist
    # before links are plugged in).
    agent = fabric.rack_switch(new_name, max(tree.k, base + degree))

    # Unplug the spliced links. detach() drops carrier, so neighbors
    # prune the link, compiled paths through it die, and the FM hears.
    result = JellyfishExpansion(new_switch=new_name)
    freed: list[tuple[str, int]] = []
    for wire in sorted(spliced_wires,
                       key=lambda w: (w.node_a, w.port_a)):
        key = ((wire.node_a, wire.node_b)
               if (wire.node_a, wire.node_b) in fabric.links
               else (wire.node_b, wire.node_a))
        fabric.links.pop(key).detach()
        result.spliced.append(tuple(sorted((wire.node_a, wire.node_b))))
        freed.append((wire.node_a, wire.port_a))
        freed.append((wire.node_b, wire.port_b))

    # Wire each freed port to the new switch.
    new_wires: list[WireSpec] = []
    for i, (node, port) in enumerate(freed):
        wire = WireSpec(new_name, base + i, node, port)
        new_wires.append(wire)
        fabric.plug(wire, params)

    # Rack the new hosts.
    new_specs: list[HostSpec] = []
    new_host_wires: list[WireSpec] = []
    for h in range(hosts_per_switch):
        spec = HostSpec(
            name=f"host-j{new_index}-{h}", pod=new_index, edge=0, index=h,
            mac=host_mac(new_index, 0, h), ip=host_ip(new_index, 0, h),
            edge_switch=new_name, edge_port=h)
        new_specs.append(spec)
        wire = WireSpec(spec.name, 0, new_name, h)
        new_host_wires.append(wire)
        fabric.hosts[spec.name] = Host(sim, spec.name, spec.mac, spec.ip)
        fabric.plug(wire, params)
        result.hosts.append(spec.name)

    # The expanded structure, with surviving links keeping their ports.
    fabric.tree = FatTree(
        k=tree.k,
        edge_names=tree.edge_names + [new_name],
        agg_names=list(tree.agg_names),
        core_names=list(tree.core_names),
        hosts=list(tree.hosts) + new_specs,
        switch_wires=kept_wires + new_wires,
        host_wires=list(tree.host_wires) + new_host_wires,
    )
    scheme.rewire(fabric.tree)

    # Bring the new switch up exactly like the builder would: preseed
    # its location, connect it to the control network, start LDP.
    location = scheme.static_locations()[new_name]
    agent.ldp.preseed(location.level, pod=location.pod,
                      position=location.position,
                      host_ports=tuple(location.host_ports))
    fabric.control.connect(agent)
    agent.start()

    # Distances changed fabric-wide (the planned expansion ships new
    # tables everywhere); agents also re-refresh on their own as the new
    # switch's LDMs are heard and spliced neighbors are pruned.
    for name, other in fabric.agents.items():
        if other is not agent:
            other._refresh_entries()

    # New hosts announce after the edge-adoption grace, as a migrated
    # VM would (their ports are preseeded, but the agent must have its
    # base entries and the FM link up before registration can land).
    grace = edge_detect_s(config) + 2 * config.ldm_period_s
    result.announce_at = sim.now + grace
    for host_name in result.hosts:
        sim.schedule(grace, fabric.hosts[host_name].gratuitous_arp)
    sim.trace.emit(sim.now, "topology.expand", new_name,
                   spliced=len(result.spliced), hosts=len(result.hosts))
    return result
