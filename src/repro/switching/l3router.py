"""The layer-3 ECMP baseline router.

This models the "existing layer 3" column of the paper's Table 1 and
the L3 convergence baseline: OSPF-style link-state routing with ECMP.
Its operational costs are exactly the ones the paper criticizes — every
edge router must be *configured* with its subnet (state the operator
must get right), and host mobility across edge routers breaks transport
connections because the host's IP must change.

To keep end hosts identical across all designs, edge routers answer ARP
for *any* requested IP on host-facing ports (proxy ARP): hosts still
believe they live on one flat LAN.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.arp import ARP_REQUEST, ArpPacket
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPv4Packet
from repro.net.link import Port
from repro.net.node import Node
from repro.net.packet import coerce
from repro.sim.process import PeriodicTask, Timer
from repro.sim.simulator import Simulator
from repro.switching.flow_table import flow_hash
from repro.switching.linkstate import (
    ETHERTYPE_ROUTING,
    HelloMessage,
    LinkStateDatabase,
    Lsa,
    shortest_paths,
)
from repro.switching.stp import bridge_mac_for

DEFAULT_HELLO_S = 1.0
DEFAULT_DEAD_S = 3.0
#: Debounce between a topology change and the SPF run, like real routers.
DEFAULT_SPF_DELAY_S = 0.050
LINK_COST = 1


@dataclass(frozen=True)
class Subnet:
    """An attached prefix on a set of host-facing ports."""

    network: int
    prefix_len: int

    def contains(self, ip: IPv4Address) -> bool:
        """Whether ``ip`` falls inside this prefix."""
        shift = 32 - self.prefix_len
        return (ip.value >> shift) == (self.network >> shift)

    def key(self) -> tuple[int, int]:
        """(network, prefix_len) pair used in LSAs."""
        return (self.network, self.prefix_len)


class _Neighbor:
    __slots__ = ("router_id", "mac", "last_heard")

    def __init__(self, router_id: int, mac: MacAddress, now: float) -> None:
        self.router_id = router_id
        self.mac = mac
        self.last_heard = now


class L3Router(Node):
    """A link-state ECMP router with proxy-ARP host-facing ports."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_ports: int,
        router_id: int,
        hello_s: float = DEFAULT_HELLO_S,
        dead_s: float = DEFAULT_DEAD_S,
        spf_delay_s: float = DEFAULT_SPF_DELAY_S,
    ) -> None:
        super().__init__(sim, name, num_ports)
        self.router_id = router_id
        self.mac = bridge_mac_for(name)
        self.hello_s = hello_s
        self.dead_s = dead_s
        self.spf_delay_s = spf_delay_s

        #: port index -> Subnet for host-facing ports.
        self.host_subnets: dict[int, Subnet] = {}
        #: host table per host-facing port: ip -> mac (learned).
        self._host_macs: dict[IPv4Address, tuple[MacAddress, int]] = {}
        #: router-facing adjacency per port.
        self._neighbors: dict[int, _Neighbor] = {}

        self.lsdb = LinkStateDatabase()
        self._own_seq = 0
        #: destination prefix (net, plen) -> list of (port, neighbor mac);
        #: local subnets are handled separately.
        self._routes: dict[tuple[int, int], list[tuple[int, MacAddress]]] = {}

        self._hello_task = PeriodicTask(sim, hello_s, self._send_hellos,
                                        jitter=0.1, rng_name=f"ls-hello/{name}")
        self._dead_task = PeriodicTask(sim, hello_s / 2, self._check_dead,
                                       jitter=0.1, rng_name=f"ls-dead/{name}")
        self._spf_timer = Timer(sim, self._run_spf)
        self._pending_arp: dict[IPv4Address, list[tuple[IPv4Packet, int]]] = {}

        #: Measurement counters.
        self.lsas_sent = 0
        self.hellos_sent = 0
        self.spf_runs = 0
        self.forwarded = 0
        self.dropped_no_route = 0
        #: Lines of operator configuration this router requires (Table 1):
        #: one per attached subnet, as the paper's L3 column argues.
        self.config_lines = 0

    # ------------------------------------------------------------------
    # Configuration (the part PortLand eliminates)

    def configure_subnet(self, port_index: int, network: int, prefix_len: int) -> None:
        """Statically configure a host-facing subnet on a port."""
        self.host_subnets[port_index] = Subnet(network, prefix_len)
        self.config_lines += 1
        self._originate_lsa()

    def start(self) -> None:
        """Bring the control plane up."""
        self._hello_task.start(0.0)
        self._dead_task.start()
        self._originate_lsa()

    # ------------------------------------------------------------------
    # Control plane

    def _router_ports(self) -> list[Port]:
        return [p for p in self.ports if p.index not in self.host_subnets]

    def _send_hellos(self) -> None:
        for port in self._router_ports():
            if not port.is_up:
                continue
            self.hellos_sent += 1
            frame = EthernetFrame(BROADCAST_MAC, self.mac, ETHERTYPE_ROUTING,
                                  HelloMessage(self.router_id))
            port.send(frame)

    def _check_dead(self) -> None:
        now = self.sim.now
        dead_ports = [index for index, nbr in self._neighbors.items()
                      if now - nbr.last_heard > self.dead_s]
        if dead_ports:
            for index in dead_ports:
                del self._neighbors[index]
            self._originate_lsa()

    def _originate_lsa(self) -> None:
        self._own_seq += 1
        lsa = Lsa(
            origin=self.router_id,
            seq=self._own_seq,
            neighbors=tuple(sorted((n.router_id, LINK_COST)
                                   for n in self._neighbors.values())),
            prefixes=tuple(sorted(s.key() for s in self.host_subnets.values())),
        )
        self.lsdb.consider(lsa)
        self._flood_lsa(lsa, exclude_port=None)
        self._schedule_spf()

    def _flood_lsa(self, lsa: Lsa, exclude_port: int | None) -> None:
        for port in self._router_ports():
            if port.index == exclude_port or not port.is_up:
                continue
            self.lsas_sent += 1
            port.send(EthernetFrame(BROADCAST_MAC, self.mac,
                                    ETHERTYPE_ROUTING, lsa))

    def _schedule_spf(self) -> None:
        if not self._spf_timer.armed:
            self._spf_timer.start(self.spf_delay_s)

    def _run_spf(self) -> None:
        self.spf_runs += 1
        first_hops = shortest_paths(self.lsdb, self.router_id)
        hop_ports: dict[int, list[tuple[int, MacAddress]]] = {}
        for index, nbr in self._neighbors.items():
            hop_ports.setdefault(nbr.router_id, []).append((index, nbr.mac))
        routes: dict[tuple[int, int], list[tuple[int, MacAddress]]] = {}
        for lsa in self.lsdb.all_lsas():
            if lsa.origin == self.router_id:
                continue
            hops = first_hops.get(lsa.origin)
            if not hops:
                continue
            next_hops: list[tuple[int, MacAddress]] = []
            for hop in sorted(hops):
                next_hops.extend(hop_ports.get(hop, []))
            if not next_hops:
                continue
            for prefix in lsa.prefixes:
                routes.setdefault(prefix, []).extend(next_hops)
        self._routes = routes

    def route_table_size(self) -> int:
        """Number of installed prefix routes (Table 1 metric)."""
        return len(self._routes) + len(self.host_subnets)

    # ------------------------------------------------------------------
    # Data plane

    def receive(self, frame: EthernetFrame, in_port: Port) -> None:
        if frame.ethertype == ETHERTYPE_ROUTING:
            self._handle_routing(frame, in_port)
            return
        if frame.ethertype == ETHERTYPE_ARP:
            self._handle_arp(coerce(frame.payload, ArpPacket), in_port)
            return
        if frame.ethertype == ETHERTYPE_IPV4:
            if frame.dst != self.mac and not frame.dst.is_multicast:
                return  # not addressed to this router
            self._forward_ip(coerce(frame.payload, IPv4Packet), in_port)

    def _handle_routing(self, frame: EthernetFrame, in_port: Port) -> None:
        payload = frame.payload
        is_hello = isinstance(payload, HelloMessage) or (
            isinstance(payload, (bytes, bytearray)) and len(payload) > 0
            and payload[0] == 1
        )
        if is_hello:
            hello = coerce(payload, HelloMessage)
            nbr = self._neighbors.get(in_port.index)
            if nbr is None or nbr.router_id != hello.router_id:
                self._neighbors[in_port.index] = _Neighbor(
                    hello.router_id, frame.src, self.sim.now)
                self._originate_lsa()
            else:
                nbr.last_heard = self.sim.now
                nbr.mac = frame.src
            return
        lsa = coerce(payload, Lsa)
        if self.lsdb.consider(lsa):
            self._flood_lsa(lsa, exclude_port=in_port.index)
            self._schedule_spf()

    def _handle_arp(self, arp: ArpPacket, in_port: Port) -> None:
        subnet = self.host_subnets.get(in_port.index)
        if subnet is None:
            return  # no ARP on router-router links
        if arp.sender_ip.value != 0:
            self._host_macs[arp.sender_ip] = (arp.sender_mac, in_port.index)
            self._flush_arp_queue(arp.sender_ip)
        if arp.op == ARP_REQUEST and not subnet.contains(arp.target_ip):
            # Proxy ARP: off-subnet destinations resolve to the router.
            reply = ArpPacket.reply(self.mac, arp.target_ip,
                                    arp.sender_mac, arp.sender_ip)
            in_port.send(EthernetFrame(arp.sender_mac, self.mac,
                                       ETHERTYPE_ARP, reply))
        elif arp.op == ARP_REQUEST and arp.target_ip != arp.sender_ip:
            # Same-subnet resolution: flood to the other host ports of
            # this subnet so the owner can answer directly.
            for port in self.ports:
                if (port.index != in_port.index and port.is_up
                        and self.host_subnets.get(port.index) == subnet):
                    port.send(EthernetFrame(BROADCAST_MAC, arp.sender_mac,
                                            ETHERTYPE_ARP, arp))

    def _forward_ip(self, packet: IPv4Packet, in_port: Port) -> None:
        if packet.ttl <= 1:
            self.dropped_no_route += 1
            return
        # Local delivery into an attached subnet?
        for port_index, subnet in self.host_subnets.items():
            if subnet.contains(packet.dst):
                self._deliver_local(packet, port_index)
                return
        route = self._lookup_route(packet.dst)
        if route is None:
            self.dropped_no_route += 1
            if self.sim.trace.wants("l3.no_route"):
                self.sim.trace.emit(self.sim.now, "l3.no_route", self.name,
                                    dst=str(packet.dst))
            return
        forwarded = packet.copy()
        forwarded.ttl = packet.ttl - 1
        frame = EthernetFrame(BROADCAST_MAC, self.mac, ETHERTYPE_IPV4, forwarded)
        # The ECMP set is the control plane's *belief*: a dead next hop
        # keeps eating packets until hellos time out (or carrier fires)
        # and SPF removes it — the honest convergence window.
        port_index, nbr_mac = route[flow_hash(frame) % len(route)]
        frame.dst = nbr_mac
        self.forwarded += 1
        self.ports[port_index].send(frame)

    def _lookup_route(self, dst: IPv4Address) -> list[tuple[int, MacAddress]] | None:
        best: tuple[int, list[tuple[int, MacAddress]]] | None = None
        for (network, plen), hops in self._routes.items():
            shift = 32 - plen
            if (dst.value >> shift) == (network >> shift):
                if best is None or plen > best[0]:
                    best = (plen, hops)
        return best[1] if best is not None else None

    def _deliver_local(self, packet: IPv4Packet, port_index: int) -> None:
        entry = self._host_macs.get(packet.dst)
        if entry is not None:
            host_mac, host_port = entry
            delivered = packet.copy()
            delivered.ttl = packet.ttl - 1
            self.forwarded += 1
            self.ports[host_port].send(
                EthernetFrame(host_mac, self.mac, ETHERTYPE_IPV4, delivered))
            return
        # Unknown host: queue and ARP for it on the subnet's ports.
        queue = self._pending_arp.setdefault(packet.dst, [])
        if len(queue) < 3:
            queue.append((packet, port_index))
        subnet = self.host_subnets[port_index]
        request = ArpPacket.request(self.mac,
                                    IPv4Address(subnet.network | 1), packet.dst)
        for port in self.ports:
            if self.host_subnets.get(port.index) == subnet and port.is_up:
                port.send(EthernetFrame(BROADCAST_MAC, self.mac,
                                        ETHERTYPE_ARP, request))

    def _flush_arp_queue(self, ip: IPv4Address) -> None:
        waiting = self._pending_arp.pop(ip, None)
        if not waiting:
            return
        for packet, port_index in waiting:
            self._deliver_local(packet, port_index)

    # ------------------------------------------------------------------
    # Failure handling

    def on_port_down(self, port: Port) -> None:
        if port.index in self._neighbors:
            del self._neighbors[port.index]
            self._originate_lsa()

    def on_port_up(self, port: Port) -> None:
        """Adjacency re-forms via hellos; nothing to do immediately."""
