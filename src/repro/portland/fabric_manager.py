"""The fabric manager (paper §3.1).

A logically centralized process on the control network that keeps *soft
state* only — everything it knows was learned from the switches and can
be relearned after a restart:

* the IP → PMAC registry that answers proxy-ARP queries,
* pod-number assignment for LDP,
* the topology view (from neighbour reports) and the fault matrix (from
  link fail/recover reports), from which it computes prescriptive
  per-switch forwarding overrides,
* multicast group membership and trees,
* VM-migration bookkeeping (invalidating stale PMACs at the old edge).

The node is a single-server queue: each message costs
``fm_service_time_s`` of CPU before its handler runs. Its utilization
and message/byte counters feed Figs. 14 and 15 directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.codec import decode_payload
from repro.net.ethernet import ETHERTYPE_FABRIC, EthernetFrame
from repro.net.link import Port
from repro.net.node import Node
from repro.portland.config import PortlandConfig
from repro.portland.faults import OverrideComputer, diff_overrides
from repro.portland.messages import (
    ArpFlood,
    ArpQuery,
    ArpResponse,
    BroadcastRelay,
    DisableLink,
    EnableLink,
    FaultClear,
    FaultUpdate,
    FmMessage,
    IgmpRelay,
    Invalidate,
    LinkFail,
    LinkRecover,
    McastInstall,
    McastMiss,
    McastRemove,
    NeighborReport,
    OverrideReport,
    PodReply,
    PodRequest,
    PolicyInstall,
    PolicyRevoke,
    RegisterHost,
    SwitchLevel,
    decode_fabric,
)
from repro.portland.multicast import MulticastManager
from repro.policy import PolicyRule, PolicyTable
from repro.portland.topology_view import FabricView, SwitchRecord
from repro.sim.process import Timer
from repro.sim.simulator import Simulator
from repro.switching.stp import bridge_mac_for


@dataclass
class FmHostRecord:
    """One host's binding in the fabric manager's registry."""

    ip: IPv4Address
    amac: MacAddress
    pmac: MacAddress
    edge_id: int
    port: int


class FabricManager(Node):
    """The PortLand fabric manager node."""

    def __init__(self, sim: Simulator, config: PortlandConfig,
                 name: str = "fabric-manager", computer=None) -> None:
        super().__init__(sim, name, num_ports=0)
        self.config = config
        self.mac = bridge_mac_for(name)

        # Connectivity: switch id <-> FM port.
        self._port_by_switch: dict[int, Port] = {}

        # Registries.
        self.hosts_by_ip: dict[IPv4Address, FmHostRecord] = {}
        self.switches: dict[int, SwitchRecord] = {}
        self.fault_matrix: set[frozenset[int]] = set()
        self._pod_assignments: dict[int, int] = {}
        self._next_pod = 0
        self._sent_overrides: dict[int, dict[tuple[int, int], set[int]]] = {}

        self.multicast = MulticastManager(self._mcast_install,
                                          self._mcast_remove)

        #: ACL policy (operator intent, NOT soft state: it survives
        #: :meth:`restart` and is re-materialised at the edges as hosts
        #: re-register through the soft-state refresh).
        self.policy = PolicyTable()

        # Single-server processing queue. Items are (frame-or-message,
        # in_port): cluster-internal messages enqueue without a frame but
        # cost the same service time.
        self._queue: deque[tuple[EthernetFrame | FmMessage, Port | None]] = \
            deque()
        self._busy = False
        #: Bumped by :meth:`restart` so a ``_service_one`` event scheduled
        #: by the pre-restart instance cannot service the new queue (it
        #: would run concurrently with the chain the first post-restart
        #: message starts, double-charging ``busy_time``).
        self._service_epoch = 0

        # Override push machinery: an optional per-round batching timer
        # (``fm_batch_interval_s``) in front of the override computer —
        # the fault policy, handed in by whoever knows the topology:
        # anything with ``update(view, changed_links, changed_switches)``,
        # ``reset()`` and an ``edges_examined`` counter.
        self._batch_timer = Timer(sim, self._flush_override_batch)
        self._pending_links: set[frozenset[int]] = set()
        self._pending_switches: set[int] = set()
        self._pending_full = False
        self._computer = computer or OverrideComputer()

        self._handlers = self._handler_table()

        #: Times this instance has been restarted (soft-state rebuilds).
        self.restarts = 0

        # Measurement counters (Figs. 14/15).
        self.messages_received = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        self.arp_queries = 0
        self.arp_misses = 0
        self.busy_time = 0.0
        #: Messages dropped as undecodable or of a type with no handler.
        self.malformed_dropped = 0
        #: Prescriptive override traffic (per-switch cache invalidation
        #: pressure: an update/clear that changes a switch's table
        #: flushes that switch's decisions).
        self.override_updates_sent = 0
        self.override_clears_sent = 0
        #: Recompute-work accounting: rounds of recompute+diff and
        #: batching rounds coalesced by the timer.
        self.override_recomputes = 0
        self.override_batches = 0

    @property
    def override_edges_examined(self) -> int:
        """Destination prefixes the override computer has re-derived."""
        return self._computer.edges_examined

    # ------------------------------------------------------------------
    # Control-network attachment

    def attach_switch(self, switch_id: int, name: str | None = None) -> Port:
        """Allocate an FM-side port for one switch's control link.

        ``name`` is a placement hint for sharded deployments (see
        :mod:`repro.portland.fm_shard`); the single FM ignores it.
        """
        port = self.add_port()
        self._port_by_switch[switch_id] = port
        return port

    def mac_for(self, switch_id: int) -> MacAddress:
        """The FM MAC ``switch_id``'s agent should address (sharded
        clusters return the switch's home shard)."""
        return self.mac

    def view(self) -> FabricView:
        """Current topology view (switch records + fault matrix)."""
        return FabricView(self.switches, self.fault_matrix)

    def restart(self) -> None:
        """Simulate a fabric-manager crash + failover.

        All registries are dropped — the paper's design point is that the
        fabric manager holds *soft state only*, so a fresh instance
        rebuilds everything from the agents' periodic refreshes
        (``PortlandConfig.soft_state_refresh_s``) without any fabric
        reconfiguration. Pending queued messages are lost too.
        """
        self.restarts += 1
        self.hosts_by_ip.clear()
        self.switches.clear()
        self.fault_matrix.clear()
        self._sent_overrides = {}
        self.multicast.groups.clear()
        self._queue.clear()
        self._busy = False
        # Invalidate any in-flight _service_one event: it belongs to the
        # crashed instance and must not start servicing the new queue.
        self._service_epoch += 1
        # Pending batched pushes die with the instance too.
        self._batch_timer.stop()
        self._pending_links = set()
        self._pending_switches = set()
        self._pending_full = False
        self._computer.reset()
        # Keep _pod_assignments and _next_pod monotone across restarts:
        # pod numbers live in the switches; reusing one for a *new* pod
        # would collide with PMACs already in use. Neighbor reports
        # re-teach us the assignments that exist.
        self.sim.trace.emit(self.sim.now, "fm.restart", self.name,
                            count=self.restarts)

    def _note_pod_in_use(self, pod: int) -> None:
        if pod != 0xFFFF:
            self._next_pod = max(self._next_pod, pod + 1)

    # ------------------------------------------------------------------
    # Receive / service queue

    def receive(self, frame: EthernetFrame, in_port: Port) -> None:
        self.messages_received += 1
        self.bytes_received += frame.wire_length()
        self._queue.append((frame, in_port))
        if not self._busy:
            self._busy = True
            self._schedule_service()

    def enqueue_internal(self, message: FmMessage) -> None:
        """Queue a message that arrived off the switch control links
        (inter-shard forwarding); it costs a normal service slot but is
        accounted separately from switch control traffic."""
        self._queue.append((message, None))
        if not self._busy:
            self._busy = True
            self._schedule_service()

    def _schedule_service(self) -> None:
        self.sim.schedule(self.config.fm_service_time_s, self._service_one,
                          self._service_epoch)

    def _service_one(self, epoch: int) -> None:
        if epoch != self._service_epoch:
            return  # scheduled before a restart: that chain is dead
        if not self._queue:
            self._busy = False
            return
        # CPU time is charged on completion, not at schedule time, so a
        # run (or a restart) that cuts a service short never counts it.
        self.busy_time += self.config.fm_service_time_s
        item, in_port = self._queue.popleft()
        try:
            if isinstance(item, EthernetFrame):
                item = decode_payload(item.payload, decode_fabric)
            self._dispatch(item)
        finally:
            if self._queue:
                self._schedule_service()
            else:
                self._busy = False

    def utilization(self, elapsed: float) -> float:
        """Fraction of one core consumed over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    # ------------------------------------------------------------------
    # Dispatch

    def _dispatch(self, message) -> None:
        handler = self._handlers.get(type(message))
        if handler is None:
            # Malformed bytes (decoded to None), or a type that no switch
            # sends a fabric manager.
            self.malformed_dropped += 1
            return
        handler(message)

    def _handler_table(self) -> dict:
        """Message class → bound handler (so a subclass's override is the
        one called); :meth:`__init__` builds it once."""
        return {
            ArpQuery: self._on_arp_query,
            RegisterHost: self._on_register_host,
            PodRequest: self._on_pod_request,
            NeighborReport: self._on_neighbor_report,
            LinkFail: self._on_link_fail,
            LinkRecover: self._on_link_recover,
            IgmpRelay: self._on_igmp_relay,
            McastMiss: self._on_mcast_miss,
            BroadcastRelay: self._on_broadcast_relay,
            OverrideReport: self._on_override_report,
        }

    def send_to_switch(self, switch_id: int, message: FmMessage) -> None:
        """Ship one message to a switch over its control link."""
        port = self._port_by_switch.get(switch_id)
        if port is None:
            return
        frame = EthernetFrame(MacAddress(switch_id), self.mac,
                              ETHERTYPE_FABRIC, message)
        self.messages_sent += 1
        self.bytes_sent += frame.wire_length()
        port.send(frame)

    def _edge_switch_ids(self) -> list[int]:
        """Edge switches to fan floods and relays out to.

        Shards override this to read their replicated edge directory
        instead of ``self.switches`` (which only the coordinator fills)."""
        return [sid for sid, record in self.switches.items()
                if record.level is SwitchLevel.EDGE]

    # ------------------------------------------------------------------
    # ARP service

    def _on_arp_query(self, query: ArpQuery) -> None:
        self.arp_queries += 1
        record = self.hosts_by_ip.get(query.target_ip)
        if record is not None:
            self.send_to_switch(query.edge_id, ArpResponse(
                query.request_id, query.target_ip, record.pmac, True))
            return
        self._arp_miss(query)

    def _arp_miss(self, query: ArpQuery) -> None:
        """Unknown IP: fall back to a fabric-wide (edge-mediated) flood.

        The flood deliberately *includes* the querying edge: ARP
        requests are proxied, never flooded locally, so hosts sharing
        the requester's edge can only hear the request through this
        path. The edge suppresses the requester's own port (see
        ``PortlandAgent._handle_arp_flood``)."""
        self.arp_misses += 1
        self.send_to_switch(query.edge_id, ArpResponse(
            query.request_id, query.target_ip, MacAddress(0), False))
        flood = ArpFlood(query.target_ip, query.requester_ip,
                         query.requester_pmac)
        for switch_id in self._edge_switch_ids():
            self.send_to_switch(switch_id, flood)

    def _on_broadcast_relay(self, relay: BroadcastRelay) -> None:
        """Fan a tunnelled broadcast out to every other edge switch."""
        for switch_id in self._edge_switch_ids():
            if switch_id != relay.edge_id:
                self.send_to_switch(switch_id, relay)

    # ------------------------------------------------------------------
    # ACL policy

    def install_acl(self, src_ip, dst_ip) -> PolicyRule:
        """Block ``src_ip`` → ``dst_ip``: record the rule and materialise
        it at the source's edge switch (if both endpoints are known —
        otherwise the push happens when the missing endpoint registers).
        Idempotent."""
        rule = self.policy.add(src_ip, dst_ip)
        self.sim.trace.emit(self.sim.now, "fm.acl_install", self.name,
                            src=rule.src_ip, dst=rule.dst_ip)
        self._push_acl(rule)
        return rule

    def revoke_acl(self, src_ip, dst_ip) -> None:
        """Unblock the pair and remove its edge entry. Idempotent."""
        rule = self.policy.remove(src_ip, dst_ip)
        if rule is None:
            return
        self.sim.trace.emit(self.sim.now, "fm.acl_revoke", self.name,
                            src=rule.src_ip, dst=rule.dst_ip)
        src = self._policy_record(IPv4Address.parse(rule.src_ip))
        if src is not None:
            self.send_to_switch(src.edge_id, PolicyRevoke(
                IPv4Address.parse(rule.src_ip),
                IPv4Address.parse(rule.dst_ip)))

    def _policy_record(self, ip: IPv4Address) -> FmHostRecord | None:
        """Registry lookup for policy resolution (the sharded
        coordinator overrides this to consult the merged registry)."""
        return self.hosts_by_ip.get(ip)

    def _push_acl(self, rule: PolicyRule) -> None:
        src = self._policy_record(IPv4Address.parse(rule.src_ip))
        dst = self._policy_record(IPv4Address.parse(rule.dst_ip))
        if src is None or dst is None:
            return
        self.send_to_switch(src.edge_id, PolicyInstall(
            src.ip, dst.ip, dst.pmac, src.port))

    def _repush_policies(self, reg: RegisterHost,
                         existing: FmHostRecord | None) -> None:
        """Re-materialise every rule touching a (re-)registered host.

        Covers three distinct events with one hook: fresh registration
        (first chance to push a rule installed before the host was
        known), the soft-state refresh after an FM restart (the policy
        table survives, the push rides the re-registration), and VM
        migration (the source's entry moves edges; the destination's
        PMAC change rewrites the entry in place at the source's edge).
        """
        rules = self.policy.involving(reg.ip)
        if not rules:
            return
        if existing is not None and existing.edge_id != reg.edge_id:
            # The source moved: retract the stale (in_port, dst_pmac)
            # entry at the old edge before a future tenant of that port
            # can inherit it.
            for rule in rules:
                if rule.src_ip == str(reg.ip):
                    self.send_to_switch(existing.edge_id, PolicyRevoke(
                        IPv4Address.parse(rule.src_ip),
                        IPv4Address.parse(rule.dst_ip)))
        for rule in rules:
            self._push_acl(rule)

    # ------------------------------------------------------------------
    # Host registry / migration

    def _on_register_host(self, reg: RegisterHost) -> None:
        existing = self.hosts_by_ip.get(reg.ip)
        record = FmHostRecord(reg.ip, reg.amac, reg.pmac, reg.edge_id, reg.port)
        self.hosts_by_ip[reg.ip] = record
        if self.policy:
            self._repush_policies(reg, existing)
        if existing is None:
            return
        moved = (existing.edge_id != reg.edge_id
                 or existing.pmac != reg.pmac)
        if not moved:
            return
        # VM migration: invalidate the old location.
        if self.sim.trace.wants("fm.migration"):
            self.sim.trace.emit(self.sim.now, "fm.migration", self.name,
                                ip=str(reg.ip), old=str(existing.pmac),
                                new=str(reg.pmac))
        self.send_to_switch(existing.edge_id,
                            Invalidate(reg.ip, existing.pmac, reg.pmac))

    # ------------------------------------------------------------------
    # LDP support

    def _on_pod_request(self, request: PodRequest) -> None:
        pod = self._pod_assignments.get(request.switch_id)
        if pod is None:
            pod = self._next_pod
            self._next_pod += 1
            self._pod_assignments[request.switch_id] = pod
        self.send_to_switch(request.switch_id, PodReply(pod))

    def _on_neighbor_report(self, report: NeighborReport) -> None:
        record = self.switches.get(report.switch_id)
        is_new = record is None
        if is_new:
            record = SwitchRecord(report.switch_id)
            self.switches[report.switch_id] = record
        old_role = (record.level, record.pod, record.position)
        old_neighbors = {nbr for nbr, _lvl in record.neighbors.values()}
        changed = record.update_from_report(report.level, report.pod,
                                            report.position, report.neighbors)
        self._note_pod_in_use(report.pod)
        if not changed:
            return
        # The physical view shifted under the overrides: LDP prunes
        # long-dead links from reports and re-adds them after
        # recovery, and positions can be re-arbitrated. A recompute
        # keyed only to fault-matrix events would leave overrides
        # derived from the stale wiring installed forever (e.g. an
        # ECMP branch still forbidden after its path came back).
        if is_new or old_role != (record.level, record.pod, record.position):
            # Role changes re-shape prefixes themselves: full recompute.
            self._note_view_change()
            return
        new_neighbors = {nbr for nbr, _lvl in record.neighbors.values()}
        delta = {frozenset((report.switch_id, nbr))
                 for nbr in old_neighbors ^ new_neighbors}
        self._note_view_change(changed_links=delta,
                               changed_switches={report.switch_id})

    # ------------------------------------------------------------------
    # Fault handling

    def _on_link_fail(self, report: LinkFail) -> None:
        self._on_link_change(report.reporter_id, report.neighbor_id,
                             failed=True)

    def _on_link_recover(self, report: LinkRecover) -> None:
        self._on_link_change(report.reporter_id, report.neighbor_id,
                             failed=False)

    def _on_link_change(self, a: int, b: int, failed: bool) -> None:
        link = frozenset((a, b))
        if failed:
            if link in self.fault_matrix:
                return
            self.fault_matrix.add(link)
        else:
            if link not in self.fault_matrix:
                return
            self.fault_matrix.discard(link)
        if self.sim.trace.wants("fm.fault_matrix"):
            self.sim.trace.emit(self.sim.now, "fm.fault_matrix", self.name,
                                link=sorted(link), failed=failed,
                                total=len(self.fault_matrix))
        # Tell both endpoints to stop/resume using the link. The reporter
        # already knows; the *other* endpoint may not — under a
        # unidirectional failure its receive direction still works, so
        # its own keepalives never time out.
        for endpoint, other in ((a, b), (b, a)):
            message = DisableLink(other) if failed else EnableLink(other)
            self.send_to_switch(endpoint, message)
        self._note_view_change(changed_links={link})

    # ------------------------------------------------------------------
    # Override push: optional batching round, then the override computer

    def _note_view_change(self,
                          changed_links: set[frozenset[int]] | None = None,
                          changed_switches: set[int] | None = None) -> None:
        """React to a view change: push overrides now, or fold the change
        into the current batching round.

        ``changed_links``/``changed_switches`` attribute the change for
        the override computer; ``None`` means "everything changed".
        Multicast trees always follow the view immediately — only the
        FaultUpdate/FaultClear stream is batched.
        """
        view = self.view()
        if self.config.fm_batch_interval_s > 0:
            if changed_links is None:
                self._pending_full = True
            elif not self._pending_full:
                self._pending_links |= changed_links
                if changed_switches:
                    self._pending_switches |= changed_switches
            if not self._batch_timer.armed:
                self._batch_timer.start(self.config.fm_batch_interval_s)
            self.multicast.on_topology_change(view)
            return
        self._push_override_changes(view, changed_links, changed_switches)
        self.multicast.on_topology_change(view)

    def _flush_override_batch(self) -> None:
        """End of a batching round: one recompute + one diff for every
        change that arrived during the window."""
        self.override_batches += 1
        if self._pending_full:
            changed_links = changed_switches = None
        else:
            changed_links = self._pending_links
            changed_switches = self._pending_switches
        self._pending_full = False
        self._pending_links = set()
        self._pending_switches = set()
        self._push_override_changes(self.view(), changed_links,
                                    changed_switches)

    def _push_override_changes(
            self, view: FabricView,
            changed_links: set[frozenset[int]] | None = None,
            changed_switches: set[int] | None = None) -> None:
        self.override_recomputes += 1
        current = self._computer.update(view, changed_links, changed_switches)
        # Deep-copy: the computer may mutate its map in place on the
        # next update, but _sent_overrides must stay a snapshot.
        new = {sid: {prefix: set(avoid)
                     for prefix, avoid in prefix_map.items()}
               for sid, prefix_map in current.items()}
        updates, clears = diff_overrides(self._sent_overrides, new)
        for switch_id, (value, bits), avoid in updates:
            self.send_to_switch(switch_id,
                                FaultUpdate(MacAddress(value), bits, avoid))
        for switch_id, (value, bits) in clears:
            self.send_to_switch(switch_id, FaultClear(MacAddress(value), bits))
        self.override_updates_sent += len(updates)
        self.override_clears_sent += len(clears)
        if (updates or clears) and self.sim.trace.wants("fm.overrides"):
            self.sim.trace.emit(self.sim.now, "fm.overrides", self.name,
                                updates=len(updates), clears=len(clears),
                                switches=len({s for s, *_ in updates}
                                             | {s for s, _ in clears}))
        self._sent_overrides = new

    def _on_override_report(self, report: OverrideReport) -> None:
        """Reconcile a switch's held overrides against what we believe.

        Closes the restart hole: overrides are FM-originated state, so a
        restarted manager cannot know what agents still hold. If a fault
        cleared while the manager was down, nothing ever retracts the
        stale overrides — until this refresh-driven report arrives and
        the diff below sends the missing clears (and re-sends any
        updates the switch somehow lost).
        """
        sent = self._sent_overrides.get(report.switch_id, {})
        held = set(report.prefixes)
        updates = 0
        clears = 0
        for value, bits in sorted(held - set(sent)):
            self.send_to_switch(report.switch_id,
                                FaultClear(MacAddress(value), bits))
            clears += 1
        for value, bits in sorted(set(sent) - held):
            avoid = sent[(value, bits)]
            self.send_to_switch(report.switch_id, FaultUpdate(
                MacAddress(value), bits, tuple(sorted(avoid))))
            updates += 1
        self.override_updates_sent += updates
        self.override_clears_sent += clears
        if (updates or clears) and self.sim.trace.wants("fm.overrides"):
            self.sim.trace.emit(self.sim.now, "fm.overrides", self.name,
                                updates=updates, clears=clears, switches=1,
                                reconciled=True)

    # ------------------------------------------------------------------
    # Multicast plumbing

    def _on_igmp_relay(self, relay: IgmpRelay) -> None:
        self.multicast.on_membership(self.view(), relay.edge_id, relay.port,
                                     relay.group, relay.join, relay.host_ip)

    def _on_mcast_miss(self, miss: McastMiss) -> None:
        self.multicast.on_sender(self.view(), miss.edge_id, miss.group)

    def _mcast_install(self, switch_id: int, group: IPv4Address,
                       ports: tuple[int, ...]) -> None:
        self.send_to_switch(switch_id,
                            McastInstall(group.multicast_mac(), ports))

    def _mcast_remove(self, switch_id: int, group: IPv4Address) -> None:
        self.send_to_switch(switch_id, McastRemove(group.multicast_mac()))
