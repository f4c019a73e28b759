"""The PortLand switch agent — the software half of every switch.

One agent class serves all three levels; the level discovered by LDP
selects which behaviours activate:

* **Edge**: host discovery and PMAC allocation, AMAC↔PMAC rewrite
  entries, proxy-ARP interception (queries to the fabric manager), IGMP
  relay, reactive multicast setup, migration traps, and the default-up
  ECMP route.
* **Aggregation**: per-position down routes, the own-pod loop guard,
  core-facing ECMP, position arbitration (inside LDP).
* **Core**: per-pod down routes.

All levels report their neighbours to the fabric manager, report link
failures/recoveries detected by LDP (or carrier), and apply prescriptive
:class:`FaultUpdate` overrides pushed by the fabric manager.
"""

from __future__ import annotations

from repro.net.addresses import BROADCAST_MAC, ZERO_MAC, IPv4Address, MacAddress
from repro.net.arp import ARP_REQUEST, ArpPacket
from repro.net.codec import decode_payload
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_FABRIC, EthernetFrame
from repro.net.igmp import IgmpMessage
from repro.net.ipv4 import IPv4Packet
from repro.net.link import Port
from repro.net.packet import Packet, coerce
from repro.portland import forwarding as fwd
from repro.portland.config import PortlandConfig
from repro.portland.ldp import LdpProcess, NeighborInfo, edge_detect_s
from repro.portland.messages import (
    ArpFlood,
    BroadcastRelay,
    ArpQuery,
    ArpResponse,
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
from repro.portland.pmac import Pmac, PmacAllocator
from repro.portland.switch import PortlandSwitch
from repro.sim.process import PeriodicTask, Timer

#: Debounce for neighbor reports to the fabric manager.
REPORT_DEBOUNCE_S = 0.005
#: Min interval between unicast gratuitous ARPs per stale sender.
TRAP_GARP_INTERVAL_S = 0.050


class HostRecord:
    """A host attached to one edge port."""

    __slots__ = ("amac", "ip", "pmac", "port", "registered")

    def __init__(self, amac: MacAddress, port: int, pmac: Pmac) -> None:
        self.amac = amac
        self.ip: IPv4Address | None = None
        self.pmac = pmac
        self.port = port
        self.registered = False


class PortlandAgent:
    """Control software for one PortLand switch: what its switch punts
    (:meth:`on_packet_in`) and its carrier events reach."""

    def __init__(self, switch: PortlandSwitch, config: PortlandConfig,
                 scheme) -> None:
        self.switch = switch
        self.sim = switch.sim
        self.config = config
        #: Topology scheme. When it resolves routes itself,
        #: ``_refresh_entries`` installs its ``route:`` entry set instead
        #: of the built-in up*-down* entries.
        self.scheme = scheme
        self.ldp = LdpProcess(switch, config, self)
        self.fm_mac: MacAddress | None = None

        # Edge state.
        self.allocator: PmacAllocator | None = None
        self.hosts_by_amac: dict[MacAddress, HostRecord] = {}
        self.hosts_by_pmac: dict[MacAddress, HostRecord] = {}
        self._pending_arp: dict[int, tuple[int, MacAddress, IPv4Address]] = {}
        self._next_request_id = 1
        self._traps: dict[MacAddress, tuple[IPv4Address, MacAddress]] = {}
        self._trap_last_garp: dict[tuple[MacAddress, MacAddress], float] = {}
        self._mcast_last_miss: dict[IPv4Address, float] = {}
        # Cached multicast membership (port, group) -> set of host IPs,
        # re-relayed on every soft-state refresh so a restarted fabric
        # manager can rebuild its group state.
        self._igmp_state: dict[tuple[int, IPv4Address], set[IPv4Address]] = {}

        # Fault overrides pushed by the FM: (prefix_value, len) -> avoid ids.
        self._fault_overrides: dict[tuple[int, int], tuple[int, ...]] = {}
        # Neighbours the FM has told us not to use (covers unidirectional
        # failures our own keepalives cannot see).
        self.fm_blocked_neighbors: set[int] = set()
        # Ports whose failure we already reported (to pair with recovery).
        self._reported_failed: dict[int, int] = {}  # port -> neighbor id

        self._report_timer = Timer(self.sim, self._send_neighbor_report)
        self._refresh_task = PeriodicTask(
            self.sim, config.soft_state_refresh_s, self._soft_state_refresh,
            jitter=0.2, rng_name=f"refresh/{switch.name}")
        self._base_installed = False
        #: Usable uplink port -> neighbour id; port -> the key of its
        #: down entry (the edge's position, or at a core the pod).
        self._uplinks: dict[int, int] = {}
        self._down_keys: dict[int, int | None] = {}

        # Measurement counters.
        self.arp_queries = 0
        self.control_messages_sent = 0
        self.control_bytes_sent = 0
        #: Control frames dropped as undecodable or of a type no fabric
        #: manager sends a switch.
        self.malformed_dropped = 0

    # ------------------------------------------------------------------
    # Identity helpers

    @property
    def switch_id(self) -> int:
        """48-bit switch identifier (its management MAC)."""
        return self.ldp.switch_id

    @property
    def level(self) -> SwitchLevel:
        """Discovered tree level."""
        return self.ldp.level

    def start(self) -> None:
        """Bring the agent up (begins LDP)."""
        self.ldp.start()

    # ------------------------------------------------------------------
    # Packet-in dispatch

    def on_packet_in(self, frame: EthernetFrame, in_port: Port, reason: str) -> None:
        if reason == "ldp":
            self.ldp.on_frame(frame, in_port)
        elif reason == "control":
            self._handle_fm_frame(frame)
        elif reason == "arp":
            self._handle_arp(frame, in_port)
        elif reason == "new-host":
            self._handle_new_host(frame, in_port)
        elif reason == "igmp":
            self._handle_igmp(frame, in_port)
        elif reason == "mcast-miss":
            self._handle_mcast_miss(frame, in_port)
        elif reason == "migrated":
            self._handle_trap(frame)

    def on_port_down(self, port: Port) -> None:
        if self.switch.control_port is not None and port is self.switch.control_port:
            return
        if port.index in self.ldp.host_ports:
            self._host_port_down(port.index)
            return
        self.ldp.on_carrier_down(port)

    def on_port_up(self, port: Port) -> None:
        """Carrier detected on a port.

        Switch neighbours re-announce themselves via LDMs automatically.
        On an edge switch a port that stays LDP-silent after carrier-up is
        a *new host port* (e.g. a migrated VM plugging in): after a grace
        period it is adopted and given a new-host trap entry.
        """
        if (self.level is SwitchLevel.EDGE
                and port.index not in self.ldp.host_ports
                and port.index not in self.ldp.neighbors):
            self.sim.schedule(edge_detect_s(self.config),
                              self._adopt_host_port, port.index)

    def _adopt_host_port(self, port_index: int) -> None:
        if (self.level is not SwitchLevel.EDGE
                or port_index in self.ldp.host_ports
                or port_index in self.ldp.neighbors):
            return
        port = self.switch.ports[port_index]
        if port.link is None or not port.is_up:
            return
        self.ldp.host_ports.add(port_index)
        if self._base_installed:
            self._trap_new_hosts(port_index)

    def _trap_new_hosts(self, port_index: int) -> None:
        """Punt whatever a host port's unknown sources send."""
        self.switch.rewrite_table.sync((), (fwd.new_host_trap(port_index),))

    # ------------------------------------------------------------------
    # Control-channel plumbing

    def send_to_fm(self, message: FmMessage) -> None:
        """Ship one message to the fabric manager on the control port."""
        if self.fm_mac is None:
            return
        frame = EthernetFrame(self.fm_mac, self.ldp.switch_mac,
                              ETHERTYPE_FABRIC, message)
        self.control_messages_sent += 1
        self.control_bytes_sent += frame.wire_length()
        self.switch.send_control(frame)

    def _handle_fm_frame(self, frame: EthernetFrame) -> None:
        message = decode_payload(frame.payload, decode_fabric)
        handler = self._FM_HANDLERS.get(type(message))
        if handler is None:
            # Malformed bytes, or a type no fabric manager sends a switch.
            self.malformed_dropped += 1
            return
        handler(self, message)

    def _on_pod_reply(self, message: PodReply) -> None:
        self.ldp.set_pod(message.pod)

    def _on_fault_update(self, message: FaultUpdate) -> None:
        key = (message.prefix.value, message.prefix_len)
        self._fault_overrides[key] = message.avoid_neighbor_ids
        self._install(self._fault_spec(key))

    def _on_fault_clear(self, message: FaultClear) -> None:
        key = (message.prefix.value, message.prefix_len)
        self._fault_overrides.pop(key, None)
        self.switch.table.remove_by_name(
            f"fault:{MacAddress(key[0])}/{key[1]}")

    def _on_mcast_install(self, message: McastInstall) -> None:
        self._install(fwd.mcast_group(message.group_mac, message.ports))

    def _on_mcast_remove(self, message: McastRemove) -> None:
        self.switch.table.remove_by_name(f"mcast:{message.group_mac}")

    def _on_disable_link(self, message: DisableLink) -> None:
        self.fm_blocked_neighbors.add(message.neighbor_id)
        self._refresh_entries()

    def _on_enable_link(self, message: EnableLink) -> None:
        self.fm_blocked_neighbors.discard(message.neighbor_id)
        self._refresh_entries()

    def _on_policy_install(self, message: PolicyInstall) -> None:
        self._install(fwd.acl_drop(message.port, message.dst_pmac,
                                   str(message.src_ip), str(message.dst_ip)))

    def _on_policy_revoke(self, message: PolicyRevoke) -> None:
        self.switch.table.remove_by_name(
            f"acl:{message.src_ip}->{message.dst_ip}")

    # ------------------------------------------------------------------
    # LDP listener callbacks

    def on_location_complete(self) -> None:
        self._install_base_entries()
        self._schedule_report()
        self._refresh_task.start()

    def on_neighbor_changed(self, port_index: int) -> None:
        # The link that failed is what recovered, whoever answers now.
        failed_peer = self._reported_failed.pop(port_index, None)
        if failed_peer is not None:
            self.send_to_fm(LinkRecover(self.switch_id, port_index,
                                        failed_peer))
        self._refresh_entries(port_index)
        self._schedule_report()

    def on_neighbor_lost(self, port_index: int, info: NeighborInfo) -> None:
        self._reported_failed[port_index] = info.switch_id
        self.send_to_fm(LinkFail(self.switch_id, port_index, info.switch_id))
        self._refresh_entries(port_index)

    def request_pod(self) -> None:
        self.send_to_fm(PodRequest(self.switch_id))

    # ------------------------------------------------------------------
    # Entry installation

    #: Names of the entries that are a function of what LDP discovered
    #: and what the fabric manager prescribed: :meth:`_refresh_entries`
    #: owns every entry named under these prefixes.
    _TOPOLOGY_ENTRIES = ("default-up", "fault:", "down:", "pod:", "route:")

    def _install(self, spec: tuple) -> None:
        """Make the entry named by ``spec`` exactly ``spec``."""
        self.switch.table.sync((), (spec,))

    def _install_base_entries(self) -> None:
        if self._base_installed:
            return
        self._base_installed = True
        level = self.level
        if level is SwitchLevel.EDGE:
            assert self.ldp.pod is not None and self.ldp.position is not None
            self.allocator = PmacAllocator(self.ldp.pod, self.ldp.position)
            self._install(fwd.arp_intercept())
            self._install(fwd.igmp_intercept())
            self._install(fwd.mcast_miss())
            self._install(fwd.own_prefix_drop(self.ldp.pod, self.ldp.position))
            for port_index in self.ldp.host_ports:
                self._trap_new_hosts(port_index)
        elif level is SwitchLevel.AGGREGATION:
            assert self.ldp.pod is not None
            self._install(fwd.own_pod_drop(self.ldp.pod))
        self._refresh_entries()

    def _refresh_entries(self, port_index: int | None = None) -> None:
        """State the topology entries a change at ``port_index`` can have
        moved (all, without it), and only those; the table reconciles. A
        scheme's routes follow every neighbour: they are stated whole."""
        if not self._base_installed:
            return
        routes = self.scheme.route_entries(self)
        whole = port_index is None or routes is not None
        specs, gone = [], []
        if whole or self._uplink(port_index) != self._uplinks.get(port_index):
            self._uplinks = uplinks = {
                index: self.ldp.neighbors[index].switch_id
                for index in self._usable_up_ports()}
            if routes is not None:
                specs.extend(routes)
            elif uplinks:  # a core has none
                specs.append(fwd.default_up(tuple(uplinks)))
            else:
                gone.append("default-up")
            # (Overrides have a priority of their own: their place is moot.)
            specs.extend(self._fault_spec(key) for key in self._fault_overrides)
        if routes is None:
            self._restate_down(None if whole else port_index, specs, gone)
        if specs or gone:
            self.switch.table.sync(self._TOPOLOGY_ENTRIES if whole else (),
                                   specs, gone)

    def _restate_down(self, port_index: int | None, specs: list[tuple],
                      gone: list[str]) -> None:
        """Add the down entries a change at ``port_index`` (``None``: any)
        can have moved to ``specs``, or their names to ``gone``. Their
        ports are the unblocked neighbours keyed on them: a pod's share
        one; of two edges claiming a position, the later one wins."""
        if self.level is SwitchLevel.AGGREGATION:
            below = SwitchLevel.EDGE
        elif self.level is SwitchLevel.CORE:
            below = SwitchLevel.AGGREGATION
        else:
            return
        blocked = self.fm_blocked_neighbors
        to_edges = below is SwitchLevel.EDGE
        neighbors = self.ldp.neighbors
        if port_index is not None:
            was = self._down_keys.get(port_index)
            info = neighbors.get(port_index)
            key = (None if info is None or info.level is not below
                   or info.switch_id in blocked
                   else info.position if to_edges else info.pod)
            if key == was:
                return  # the same entry, over the same ports
            keys = {was, key}
        # In neighbour order: of two edges on one position, the later wins.
        keyed = self._down_keys = {
            index: info.position if to_edges else info.pod
            for index, info in neighbors.items()
            if info.level is below and info.switch_id not in blocked}
        if port_index is None:
            keys = set(keyed.values())
        keys.discard(None)
        ports: dict[int, list[int]] = {}
        for index, key in keyed.items():
            if key in keys:
                ports.setdefault(key, []).append(index)
        pod = self.ldp.pod
        if to_edges:
            gone.extend(fwd.down_name(pod, key) for key in keys - ports.keys())
            specs.extend(fwd.down_to_position(pod, key, on[-1])
                         for key, on in ports.items())
        else:
            gone.extend(fwd.down_name(key) for key in keys - ports.keys())
            specs.extend(fwd.down_to_pod(key, tuple(sorted(on)))
                         for key, on in ports.items())

    def _uplink(self, index: int) -> int | None:
        """The neighbour on port ``index`` if :meth:`_usable_up_ports`
        lists the port."""
        info = self.ldp.neighbors.get(index)
        if (info is not None and self.ldp.faces_up(info)
                and info.switch_id not in self.fm_blocked_neighbors):
            return info.switch_id
        return None

    def _usable_up_ports(self) -> list[int]:
        """Uplink ports minus any the fabric manager has blocked."""
        return [index for index in self.ldp.up_ports()
                if self.ldp.neighbors[index].switch_id
                not in self.fm_blocked_neighbors]

    def _fault_spec(self, key: tuple[int, int]) -> tuple:
        """The ``fault:`` entry for one prescribed override."""
        avoid = self._fault_overrides[key]
        candidates = self.scheme.override_candidate_ports(self)
        if candidates is None:
            candidates = self._usable_up_ports()
        ports = tuple(
            index for index in candidates
            if self.ldp.neighbors[index].switch_id not in avoid
        )
        return fwd.fault_override(MacAddress(key[0]), key[1], ports)

    # ------------------------------------------------------------------
    # Neighbor reporting

    def _schedule_report(self) -> None:
        if not self._report_timer.armed:
            self._report_timer.start(REPORT_DEBOUNCE_S)

    def _send_neighbor_report(self) -> None:
        if self.level is SwitchLevel.UNKNOWN:
            return
        from repro.portland.messages import NO_POD, NO_POSITION

        neighbors = tuple(
            (index, info.switch_id, info.level)
            for index, info in sorted(self.ldp.neighbors.items())
        )
        self.send_to_fm(NeighborReport(
            switch_id=self.switch_id,
            level=self.level,
            pod=self.ldp.pod if self.ldp.pod is not None else NO_POD,
            position=(self.ldp.position if self.ldp.position is not None
                      else NO_POSITION),
            neighbors=neighbors,
        ))

    def _soft_state_refresh(self) -> None:
        """Re-announce everything the fabric manager holds as soft state.

        The paper's fabric manager keeps *only* soft state so a restarted
        (or failed-over) instance rebuilds its registries from these
        periodic refreshes: topology, host bindings, multicast
        membership, and still-outstanding link failures.
        """
        self._send_neighbor_report()
        for record in self.hosts_by_amac.values():
            if record.registered and record.ip is not None:
                self.send_to_fm(RegisterHost(self.switch_id, record.port,
                                             record.amac, record.ip,
                                             record.pmac.to_mac()))
        for (port, group), members in self._igmp_state.items():
            for host_ip in members:
                self.send_to_fm(IgmpRelay(self.switch_id, port, group,
                                          True, host_ip))
        for port_index, neighbor_id in self._reported_failed.items():
            self.send_to_fm(LinkFail(self.switch_id, port_index, neighbor_id))
        if self._fault_overrides:
            # Overrides are the one piece of FM-*originated* state we
            # hold; reporting them lets a restarted manager retract
            # entries whose fault cleared while it was down. Sent after
            # the LinkFail re-reports above so the manager rebuilds its
            # fault matrix before reconciling.
            self.send_to_fm(OverrideReport(
                self.switch_id, tuple(sorted(self._fault_overrides))))

    # ------------------------------------------------------------------
    # Edge: host discovery and registration

    def _handle_new_host(self, frame: EthernetFrame, in_port: Port) -> None:
        if self.allocator is None or in_port.index not in self.ldp.host_ports:
            return
        amac = frame.src
        record = self.hosts_by_amac.get(amac)
        if record is None:
            pmac = self.allocator.allocate(in_port.index)
            record = HostRecord(amac, in_port.index, pmac)
            self.hosts_by_amac[amac] = record
            self.hosts_by_pmac[pmac.to_mac()] = record
            self._install_host_entries(record)
            if self.sim.trace.wants("portland.host_discovered"):
                self.sim.trace.emit(self.sim.now, "portland.host_discovered",
                                    self.switch.name, amac=str(amac),
                                    pmac=str(pmac), port=in_port.index)
        self._learn_host_ip(record, frame)
        # Reprocess the triggering frame now that entries exist.
        if frame.ethertype == ETHERTYPE_ARP:
            self._handle_arp(frame, in_port)
        else:
            rewritten = frame.copy()
            rewritten.src = record.pmac.to_mac()
            self.switch.inject(rewritten, from_port_index=in_port.index)

    def _install_host_entries(self, record: HostRecord) -> None:
        pmac_mac = record.pmac.to_mac()
        self.switch.rewrite_table.install(
            fwd.Match(in_port=record.port, eth_src=record.amac),
            (fwd.SetEthSrc(pmac_mac),),
            fwd.REWRITE_PRIO_HOST,
            f"ingress:{record.amac}",
        )
        self._install(fwd.host_egress(pmac_mac, record.amac, record.port))
        # A returning/migrated host supersedes any trap for its PMAC.
        self._remove_trap(pmac_mac)

    def _learn_host_ip(self, record: HostRecord, frame: EthernetFrame) -> None:
        ip: IPv4Address | None = None
        if frame.ethertype == ETHERTYPE_ARP:
            arp = coerce(frame.payload, ArpPacket)
            if arp.sender_ip.value != 0:
                ip = arp.sender_ip
        elif frame.payload is not None:
            try:
                ip = coerce(frame.payload, IPv4Packet).src
            except Exception:
                ip = None
        if ip is None:
            return
        if record.ip != ip or not record.registered:
            record.ip = ip
            record.registered = True
            self.send_to_fm(RegisterHost(self.switch_id, record.port,
                                         record.amac, ip,
                                         record.pmac.to_mac()))

    def _host_port_down(self, port_index: int) -> None:
        for record in [r for r in self.hosts_by_amac.values()
                       if r.port == port_index]:
            self._forget_host(record)

    def _forget_host(self, record: HostRecord) -> None:
        """The host left this port: drop its record, its two entries
        and its PMAC."""
        pmac_mac = record.pmac.to_mac()
        self.hosts_by_amac.pop(record.amac, None)
        self.hosts_by_pmac.pop(pmac_mac, None)
        self.switch.rewrite_table.remove_by_name(f"ingress:{record.amac}")
        self.switch.table.remove_by_name(f"host:{pmac_mac}")
        if self.allocator is not None:
            self.allocator.release(record.pmac)

    # ------------------------------------------------------------------
    # Edge: ARP proxying

    def _handle_arp(self, frame: EthernetFrame, in_port: Port) -> None:
        if self.allocator is None:
            return
        arp = coerce(frame.payload, ArpPacket)
        if in_port.index in self.ldp.host_ports:
            self._handle_host_arp(frame, arp, in_port)
        else:
            self._handle_fabric_arp(frame, arp)

    def _handle_host_arp(self, frame: EthernetFrame, arp: ArpPacket,
                         in_port: Port) -> None:
        record = self._record_for(frame, arp, in_port)
        if record is None:
            return
        if arp.is_gratuitous:
            # Host announcement (e.g. a VM that just arrived): the
            # registration in _record_for is all that is needed.
            return
        if arp.op == ARP_REQUEST:
            request_id = self._next_request_id
            self._next_request_id += 1
            self._pending_arp[request_id] = (in_port.index, record.amac,
                                             arp.sender_ip)
            self.arp_queries += 1
            self.send_to_fm(ArpQuery(request_id, self.switch_id,
                                     arp.sender_ip, record.pmac.to_mac(),
                                     arp.target_ip))
        else:
            # Solicited reply from a local host (answering an ArpFlood):
            # rewrite the payload's AMAC to the PMAC, route to requester.
            reply = ArpPacket.reply(record.pmac.to_mac(), arp.sender_ip,
                                    arp.target_mac, arp.target_ip)
            out = EthernetFrame(arp.target_mac, record.pmac.to_mac(),
                                ETHERTYPE_ARP, reply)
            self.switch.inject(out, from_port_index=in_port.index)

    def _record_for(self, frame: EthernetFrame, arp: ArpPacket,
                    in_port: Port) -> HostRecord | None:
        """Host record for an ARP frame arriving on a host port,
        discovering/registering the host as a side effect."""
        record = self.hosts_by_amac.get(frame.src)
        if record is None:
            record = self.hosts_by_pmac.get(frame.src)
        if record is None:
            self._handle_new_host(frame, in_port)
            return None  # _handle_new_host re-dispatches the ARP
        self._learn_host_ip(record, frame)
        return record

    def _handle_fabric_arp(self, frame: EthernetFrame, arp: ArpPacket) -> None:
        """ARP arriving from the fabric: unicast replies (or trap GARPs)
        addressed to one of our hosts' PMACs."""
        record = self.hosts_by_pmac.get(frame.dst)
        if record is None:
            return
        delivered = frame.copy()
        delivered.dst = record.amac
        self.switch.ports[record.port].send(delivered)

    def _handle_arp_response(self, message: ArpResponse) -> None:
        pending = self._pending_arp.pop(message.request_id, None)
        if pending is None or not message.found:
            return
        port_index, amac, requester_ip = pending
        reply = ArpPacket.reply(message.pmac, message.target_ip, amac,
                                requester_ip)
        frame = EthernetFrame(amac, message.pmac, ETHERTYPE_ARP, reply)
        self.switch.ports[port_index].send(frame)

    def _handle_arp_flood(self, message: ArpFlood) -> None:
        # The fabric manager's flood fan-out includes the querying edge
        # on purpose: edges proxy ARP requests instead of flooding them
        # locally (_handle_host_arp only sends an ArpQuery), so hosts
        # sharing the requester's edge hear the request *only* through
        # this path. Duplicate-suppression is per port — the requester
        # itself must not receive its own request back.
        if self.allocator is None:
            return
        skip_port: int | None = None
        record = self.hosts_by_pmac.get(message.requester_pmac)
        if record is not None:
            # The requester is one of ours: skip its port directly.
            skip_port = record.port
        else:
            try:
                requester = Pmac.from_mac(message.requester_pmac)
                if (requester.pod == self.ldp.pod
                        and requester.position == self.ldp.position):
                    skip_port = requester.port
            except Exception:
                skip_port = None
        request = ArpPacket(ARP_REQUEST, message.requester_pmac,
                            message.requester_ip, ZERO_MAC, message.target_ip)
        for port_index in self.ldp.host_ports:
            if port_index == skip_port:
                continue
            self.switch.ports[port_index].send(
                EthernetFrame(BROADCAST_MAC, message.requester_pmac,
                              ETHERTYPE_ARP, request))

    # ------------------------------------------------------------------
    # Edge: multicast

    def _handle_igmp(self, frame: EthernetFrame, in_port: Port) -> None:
        if in_port.index not in self.ldp.host_ports:
            return
        packet = coerce(frame.payload, IPv4Packet)
        igmp = coerce(packet.payload, IgmpMessage)
        members = self._igmp_state.setdefault((in_port.index, igmp.group), set())
        if igmp.is_join:
            members.add(packet.src)
        else:
            members.discard(packet.src)
            if not members:
                del self._igmp_state[(in_port.index, igmp.group)]
        self.send_to_fm(IgmpRelay(self.switch_id, in_port.index, igmp.group,
                                  igmp.is_join, packet.src))

    def _handle_mcast_miss(self, frame: EthernetFrame, in_port: Port) -> None:
        if frame.ethertype == ETHERTYPE_ARP or frame.payload is None:
            return
        try:
            packet = coerce(frame.payload, IPv4Packet)
        except Exception:
            return
        group = packet.dst
        if group.is_limited_broadcast:
            self._relay_broadcast(frame, in_port)
            return
        if not group.is_multicast:
            return
        last = self._mcast_last_miss.get(group, -1.0)
        if self.sim.now - last < 0.050:
            return
        self._mcast_last_miss[group] = self.sim.now
        self.send_to_fm(McastMiss(self.switch_id, group))

    # ------------------------------------------------------------------
    # Edge: non-ARP broadcast (relayed through the fabric manager)

    def _relay_broadcast(self, frame: EthernetFrame, in_port: Port) -> None:
        """A host sent a limited broadcast (e.g. DHCP): deliver locally
        and tunnel it through the fabric manager for fabric-wide
        delivery — the fabric itself never floods."""
        if in_port.index not in self.ldp.host_ports:
            return
        for port_index in self.ldp.host_ports:
            if port_index != in_port.index:
                self.switch.ports[port_index].send(frame.copy())
        from repro.net.packet import encode_payload

        self.send_to_fm(BroadcastRelay(self.switch_id, frame.src,
                                       frame.ethertype,
                                       encode_payload(frame.payload)))

    def _emit_relayed_broadcast(self, relay: BroadcastRelay) -> None:
        if self.allocator is None:
            return
        frame = EthernetFrame(BROADCAST_MAC, relay.src_pmac,
                              relay.ethertype, relay.payload)
        for port_index in self.ldp.host_ports:
            self.switch.ports[port_index].send(frame.copy())

    # ------------------------------------------------------------------
    # Edge: VM migration support

    def _install_trap(self, message: Invalidate) -> None:
        old = message.old_pmac
        record = self.hosts_by_pmac.get(old)
        if record is not None:
            self._forget_host(record)
        self._traps[old] = (message.ip, message.new_pmac)
        self._install(fwd.migration_trap(old))

    def _remove_trap(self, pmac_mac: MacAddress) -> None:
        if self._traps.pop(pmac_mac, None) is not None:
            self.switch.table.remove_by_name(f"trap:{pmac_mac}")

    def _handle_trap(self, frame: EthernetFrame) -> None:
        trap = self._traps.get(frame.dst)
        if trap is None:
            return
        ip, new_pmac = trap
        # Unicast gratuitous ARP back to the (stale) sender, rate-limited.
        key = (frame.dst, frame.src)
        last = self._trap_last_garp.get(key, -1.0)
        if self.sim.now - last >= TRAP_GARP_INTERVAL_S:
            self._trap_last_garp[key] = self.sim.now
            update = ArpPacket.reply(new_pmac, ip, frame.src, IPv4Address(0))
            self.switch.inject(EthernetFrame(frame.src, new_pmac,
                                             ETHERTYPE_ARP, update))
        forwarded = frame.copy()
        forwarded.dst = new_pmac
        self.switch.inject(forwarded)

    #: Fabric-manager message class → handler, for _handle_fm_frame.
    _FM_HANDLERS = {
        PodReply: _on_pod_reply,
        ArpResponse: _handle_arp_response,
        ArpFlood: _handle_arp_flood,
        FaultUpdate: _on_fault_update,
        FaultClear: _on_fault_clear,
        McastInstall: _on_mcast_install,
        McastRemove: _on_mcast_remove,
        Invalidate: _install_trap,
        DisableLink: _on_disable_link,
        EnableLink: _on_enable_link,
        BroadcastRelay: _emit_relayed_broadcast,
        PolicyInstall: _on_policy_install,
        PolicyRevoke: _on_policy_revoke,
    }
