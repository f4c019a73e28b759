"""Post-hoc invariant checks over a settled PortLand fabric.

Each check is a pure function ``(fabric) -> list[Violation]`` reading
the *actual* state of the system — agent registries, installed fault
overrides, the fabric manager's host table — and comparing it against
the independent reachability oracle in
:mod:`repro.verify.reachability`. An empty list means the invariant
holds; a non-empty list pinpoints where it broke.

The checks assume a *settled* fabric: run the simulator long enough
after the last topology event for detection, reporting, and
reinstallation to complete (the fault campaigns do this between steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.addresses import MacAddress
from repro.portland.messages import SwitchLevel
from repro.portland.pmac import POSITION_PREFIX_LEN, Pmac


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach.

    Attributes:
        kind: Invariant family, e.g. ``"loop"``, ``"blackhole"``,
            ``"misdelivery"``, ``"pmac-duplicate"``, ``"pmac-structure"``,
            ``"pmac-registry"``, ``"override-soundness"``,
            ``"stale-fault"``, ``"up-after-down"``.
        where: Name/id of the component where it was observed.
        time: Simulated time of observation.
        detail: Free-form context for the report.
    """

    kind: str
    where: str
    time: float = 0.0
    detail: dict[str, Any] = field(default_factory=dict, compare=False)

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.kind}] at {self.where} (t={self.time:.6f}s): {parts}"


def agents_by_switch_id(fabric) -> dict[int, Any]:
    """Map switch id -> PortlandAgent for every switch in the fabric."""
    return {agent.switch_id: agent for agent in fabric.agents.values()}


# ----------------------------------------------------------------------
# PMAC uniqueness / consistency


def check_pmac_consistency(fabric) -> list[Violation]:
    """PMAC invariants (paper §3.2).

    * Globally, at most one live host per PMAC — two hosts sharing a
      (pod, position, port, vmid) would be indistinguishable to
      forwarding.
    * Every edge-held PMAC structurally matches its switch: the pod and
      position fields equal the edge's LDP-discovered location and the
      port field names the port the host actually hangs off. A mismatch
      means the AMAC↔PMAC rewrite layer is leaking identifiers.
    * The fabric manager's registry is a subset of the edge tables: every
      (ip → pmac) binding it would hand out in a proxy-ARP reply must be
      backed by a matching rewrite/egress entry at the owning edge.
    """
    now = fabric.sim.now
    violations: list[Violation] = []
    owner_by_pmac: dict[int, str] = {}

    for name, agent in fabric.agents.items():
        if agent.level is not SwitchLevel.EDGE:
            continue
        for pmac_mac, record in agent.hosts_by_pmac.items():
            previous = owner_by_pmac.get(pmac_mac.value)
            if previous is not None:
                violations.append(Violation(
                    "pmac-duplicate", name, now,
                    {"pmac": str(record.pmac), "also_at": previous}))
            owner_by_pmac[pmac_mac.value] = name
            if (record.pmac.pod != agent.ldp.pod
                    or record.pmac.position != agent.ldp.position
                    or record.pmac.port != record.port):
                violations.append(Violation(
                    "pmac-structure", name, now,
                    {"pmac": str(record.pmac), "host_port": record.port,
                     "edge_pod": agent.ldp.pod,
                     "edge_position": agent.ldp.position}))
            if agent.hosts_by_amac.get(record.amac) is not record:
                violations.append(Violation(
                    "pmac-structure", name, now,
                    {"pmac": str(record.pmac), "amac": str(record.amac),
                     "reason": "amac/pmac maps disagree"}))

    fm = fabric.fabric_manager
    if fm is None:
        return violations
    agents = agents_by_switch_id(fabric)
    for ip, fm_record in fm.hosts_by_ip.items():
        agent = agents.get(fm_record.edge_id)
        if agent is None:
            violations.append(Violation(
                "pmac-registry", fm.name, now,
                {"ip": str(ip), "reason": "unknown edge id",
                 "edge_id": fm_record.edge_id}))
            continue
        edge_record = agent.hosts_by_pmac.get(fm_record.pmac)
        if edge_record is None:
            violations.append(Violation(
                "pmac-registry", fm.name, now,
                {"ip": str(ip), "pmac": str(fm_record.pmac),
                 "edge": agent.switch.name,
                 "reason": "FM binding not present at edge"}))
        elif (edge_record.amac != fm_record.amac
              or edge_record.port != fm_record.port):
            violations.append(Violation(
                "pmac-registry", fm.name, now,
                {"ip": str(ip), "pmac": str(fm_record.pmac),
                 "edge": agent.switch.name,
                 "reason": "FM binding disagrees with edge record"}))
    return violations


# ----------------------------------------------------------------------
# Fault-override soundness / minimality


def check_override_soundness(fabric) -> list[Violation]:
    """Every installed ``avoid`` must name a genuinely dead-ended path.

    For each fault override held by a switch agent (the state the fabric
    manager's FaultUpdates actually left behind, not the FM's intent),
    re-derive viability of every avoided neighbour from the alive wiring
    alone. Forbidding a neighbour through which the destination is still
    deliverable shrinks the ECMP set for no reason — the minimality half
    of the paper's prescriptive-update claim — and in the extreme
    (empty allowed set while alive paths exist) manufactures a blackhole.

    The completeness direction — a *viable-looking but dead* neighbour
    that should have been avoided — is covered by the table walker
    (:mod:`repro.verify.walk`), which observes the resulting drop.
    """
    fm = fabric.fabric_manager
    if fm is None:
        return []
    now = fabric.sim.now
    view = fm.view()
    scheme = fabric.scheme
    edges_by_location = {
        (view.pod(edge), view.position(edge)): edge for edge in view.edges()
    }
    violations: list[Violation] = []

    for name, agent in fabric.agents.items():
        if not agent._fault_overrides:
            continue
        for (value, bits), avoid_ids in agent._fault_overrides.items():
            if bits != POSITION_PREFIX_LEN:
                violations.append(Violation(
                    "override-soundness", name, now,
                    {"prefix": f"{MacAddress(value)}/{bits}",
                     "reason": "override prefix is not a position prefix"}))
                continue
            pmac = Pmac.from_mac(MacAddress(value))
            dst_edge = edges_by_location.get((pmac.pod, pmac.position))
            if dst_edge is None:
                # The FM no longer knows such an edge; transient staleness
                # rather than an invariant breach — skip.
                continue
            for neighbor in avoid_ids:
                if not view.alive(agent.switch_id, neighbor):
                    # Trivially sound: the first hop is dead — either in
                    # the fault matrix, or pruned from the neighbor
                    # reports entirely (LDP drops long-dead links, so a
                    # stale override can outlive its link's adjacency).
                    continue
                # Viability of the avoided first hop is the scheme's
                # call — each backend knows its own forwarding
                # discipline (up*-down* descent vs. shortest-path DAG).
                if scheme.avoid_viable(view, agent, neighbor, dst_edge):
                    violations.append(Violation(
                        "override-soundness", name, now,
                        {"prefix": str(pmac), "avoid": neighbor,
                         "dst_edge": dst_edge,
                         "reason": "alive path forbidden by override"}))
    return violations


# ----------------------------------------------------------------------
# Fault-state staleness


def check_fault_state(fabric) -> list[Violation]:
    """Only dead links stay failed.

    Every switch pair in the fabric manager's fault matrix must name a
    wired link that is down, and no agent may block
    (``fm_blocked_neighbors``) a neighbour it has a live link to. The
    override check judges overrides by the manager's own matrix, so an
    entry whose recovery never reached it — a ``LinkRecover`` naming
    the wrong link — looks sound there while it keeps the link out of
    every ECMP set for good.
    """
    fm = fabric.fabric_manager
    if fm is None:
        return []
    now = fabric.sim.now
    ids = {name: agent.switch_id for name, agent in fabric.agents.items()}
    # Switch pair -> whether a live link joins it in the wiring.
    wired: dict[frozenset[int], bool] = {}
    for link in fabric.links.values():
        a, b = link.a, link.b
        if a.node.name in ids and b.node.name in ids:
            pair = frozenset((ids[a.node.name], ids[b.node.name]))
            wired[pair] = wired.get(pair, False) or (
                a.is_up and b.is_up and link.can_carry(a)
                and link.can_carry(b))
    violations = [
        Violation("stale-fault", fm.name, now,
                  {"link": sorted(pair),
                   "reason": ("live link in the fault matrix"
                              if pair in wired else
                              "fault matrix names no wired link")})
        for pair in sorted(fm.fault_matrix, key=sorted)
        if wired.get(pair, True)]
    for name, agent in fabric.agents.items():
        for neighbor in sorted(agent.fm_blocked_neighbors):
            if wired.get(frozenset((agent.switch_id, neighbor))):
                violations.append(Violation(
                    "stale-fault", name, now,
                    {"neighbor": neighbor,
                     "reason": "live neighbour blocked"}))
    return violations
