"""An end host: single NIC, ARP, IPv4, UDP, TCP, IGMP.

Hosts are deliberately *unmodified* with respect to PortLand: they speak
plain ARP/IP/Ethernet and never see PMACs as anything but opaque MAC
addresses — exactly the paper's requirement that end hosts need no
changes.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import HostError
from repro.host.arp_cache import DEFAULT_ARP_TIMEOUT_S, ArpCache
from repro.host.tcp.stack import TcpStack
from repro.host.udp_socket import EPHEMERAL_PORT_START, UdpSocket
from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.arp import ARP_REQUEST, ArpPacket
from repro.net.ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
)
from repro.net.igmp import IgmpMessage
from repro.net.ipv4 import (DEFAULT_TTL, IPPROTO_IGMP, IPPROTO_TCP,
                             IPPROTO_UDP, IPv4Packet)
from repro.net.link import Port
from repro.net.node import Node
from repro.net.packet import Packet, coerce
from repro.net.udp import UdpDatagram
from repro.policy import class_of_dscp
from repro.sim.process import Timer
from repro.sim.simulator import Simulator

#: Max queued packets per unresolved next hop (RFC 1122 suggests >= 1).
ARP_QUEUE_LIMIT = 3


class Host(Node):
    """A single-homed end host with a small but real protocol stack."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: IPv4Address,
        arp_timeout_s: float = DEFAULT_ARP_TIMEOUT_S,
        arp_retries: int = 3,
        arp_retry_interval_s: float = 1.0,
    ) -> None:
        super().__init__(sim, name, num_ports=1)
        self.mac = mac
        self.ip = ip
        self.arp_cache = ArpCache(arp_timeout_s)
        self.arp_retries = arp_retries
        self.arp_retry_interval_s = arp_retry_interval_s
        self._arp_pending: dict[IPv4Address, list[IPv4Packet]] = {}
        self._arp_timers: dict[IPv4Address, Timer] = {}
        self._arp_attempts: dict[IPv4Address, int] = {}
        self._udp_sockets: dict[int, UdpSocket] = {}
        self._next_ephemeral = EPHEMERAL_PORT_START
        self.joined_groups: set[IPv4Address] = set()
        self.tcp = TcpStack(self)
        #: Packets dropped because ARP resolution ultimately failed.
        self.unresolved_drops = 0
        #: ARP requests transmitted (measurement hook for Fig. 14).
        self.arp_requests_sent = 0
        #: Hook invoked for every IGMP message sent (the edge agent also
        #: sees them on the wire; this is for tests).
        self.on_igmp_sent: Callable[[IgmpMessage], None] | None = None

    # ------------------------------------------------------------------
    # Link layer

    @property
    def nic(self) -> Port:
        """The single network interface."""
        return self.ports[0]

    def receive(self, frame: EthernetFrame, in_port: Port) -> None:
        """NIC receive path: filter on destination MAC, then demux."""
        if not self._accepts(frame.dst):
            return
        ethertype = frame.ethertype
        if ethertype == ETHERTYPE_IPV4:
            packet = frame.payload
            self._handle_ip(packet if type(packet) is IPv4Packet
                            else coerce(packet, IPv4Packet))
        elif ethertype == ETHERTYPE_ARP:
            self._handle_arp(coerce(frame.payload, ArpPacket))

    def _accepts(self, dst: MacAddress) -> bool:
        if dst == self.mac or dst.is_broadcast:
            return True
        if dst.is_multicast:
            return any(group.multicast_mac() == dst for group in self.joined_groups)
        return False

    def _send_frame(self, dst: MacAddress, ethertype: int,
                    payload: Packet | bytes, tclass: int = 0) -> None:
        self.ports[0].send(EthernetFrame(dst, self.mac, ethertype, payload,
                                         tclass=tclass))

    # ------------------------------------------------------------------
    # ARP

    def _handle_arp(self, arp: ArpPacket) -> None:
        if arp.sender_ip.value != 0:
            # Learn/refresh from requests, replies, and gratuitous
            # announcements alike; the latter is how VM migration repoints
            # stale caches (Fig. 13).
            self.arp_cache.insert(arp.sender_ip, arp.sender_mac, self.sim.now)
            self._flush_pending(arp.sender_ip, arp.sender_mac)
        if arp.op == ARP_REQUEST and arp.target_ip == self.ip:
            reply = ArpPacket.reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip)
            self._send_frame(arp.sender_mac, ETHERTYPE_ARP, reply)

    def _flush_pending(self, ip: IPv4Address, mac: MacAddress) -> None:
        waiting = self._arp_pending.pop(ip, None)
        timer = self._arp_timers.pop(ip, None)
        if timer is not None:
            timer.stop()
        self._arp_attempts.pop(ip, None)
        if waiting:
            for packet in waiting:
                self._send_frame(mac, ETHERTYPE_IPV4, packet,
                                 tclass=class_of_dscp(packet.dscp))

    def _start_resolution(self, ip: IPv4Address) -> None:
        self._arp_attempts[ip] = 1
        self._emit_arp_request(ip)
        timer = Timer(self.sim, self._arp_retry, ip)
        self._arp_timers[ip] = timer
        timer.start(self.arp_retry_interval_s)

    def _emit_arp_request(self, ip: IPv4Address) -> None:
        self.arp_requests_sent += 1
        request = ArpPacket.request(self.mac, self.ip, ip)
        self._send_frame(BROADCAST_MAC, ETHERTYPE_ARP, request)

    def _arp_retry(self, ip: IPv4Address) -> None:
        if ip not in self._arp_pending:
            return
        attempts = self._arp_attempts.get(ip, 0)
        if attempts >= self.arp_retries:
            dropped = self._arp_pending.pop(ip, [])
            self.unresolved_drops += len(dropped)
            self._arp_timers.pop(ip, None)
            self._arp_attempts.pop(ip, None)
            if self.sim.trace.wants("host.arp_failed"):
                self.sim.trace.emit(self.sim.now, "host.arp_failed",
                                    self.name, target=str(ip),
                                    dropped=len(dropped))
            return
        self._arp_attempts[ip] = attempts + 1
        self._emit_arp_request(ip)
        self._arp_timers[ip].start(self.arp_retry_interval_s)

    def gratuitous_arp(self) -> None:
        """Broadcast a gratuitous ARP announcing our IP→MAC binding."""
        self._send_frame(BROADCAST_MAC, ETHERTYPE_ARP,
                         ArpPacket.gratuitous(self.mac, self.ip))

    # ------------------------------------------------------------------
    # IPv4

    def send_ip(self, dst_ip: IPv4Address, protocol: int,
                payload: Packet | bytes, ttl: int | None = None,
                dscp: int = 0) -> None:
        """Send an IPv4 packet, resolving the destination MAC first.

        The fabric is one flat layer-2 domain (PortLand's model), so the
        destination IP is ARPed for directly — there is no default router.
        ``dscp`` marks the packet's code point; the frame's traffic class
        (802.1p, what the fabric's priority queues serve) derives from it.
        """
        packet = IPv4Packet(self.ip, dst_ip, protocol, payload,
                            DEFAULT_TTL if ttl is None else ttl, 0, dscp)
        tclass = class_of_dscp(dscp)
        if dst_ip.is_limited_broadcast:
            self._send_frame(BROADCAST_MAC, ETHERTYPE_IPV4, packet,
                             tclass=tclass)
            return
        if dst_ip.is_multicast:
            self._send_frame(dst_ip.multicast_mac(), ETHERTYPE_IPV4, packet,
                             tclass=tclass)
            return
        mac = self.arp_cache.lookup(dst_ip, self.sim.now)
        if mac is not None:
            self._send_frame(mac, ETHERTYPE_IPV4, packet, tclass=tclass)
            return
        queue = self._arp_pending.setdefault(dst_ip, [])
        if len(queue) >= ARP_QUEUE_LIMIT:
            queue.pop(0)  # keep the newest packets, as Linux does
            self.unresolved_drops += 1
        queue.append(packet)
        if dst_ip not in self._arp_timers:
            self._start_resolution(dst_ip)

    def _handle_ip(self, packet: IPv4Packet) -> None:
        dst = packet.dst
        if dst != self.ip:  # (unicast to us asks nothing more)
            if dst.is_limited_broadcast:
                if packet.src == self.ip:
                    return  # never deliver our own broadcast back to us
            elif not (dst.is_multicast and dst in self.joined_groups):
                return
        protocol = packet.protocol
        if protocol == IPPROTO_TCP:
            self.tcp.deliver(packet)
        elif protocol == IPPROTO_UDP:
            self._deliver_udp(packet)
        # IGMP to hosts is ignored: the fabric manager is authoritative.

    # ------------------------------------------------------------------
    # UDP

    def udp_socket(self, port: int | None = None) -> UdpSocket:
        """Bind a UDP socket (ephemeral port when ``port`` is ``None``)."""
        if port is None:
            port = self._alloc_ephemeral(self._udp_sockets)
        if port in self._udp_sockets:
            raise HostError(f"{self.name}: UDP port {port} already bound")
        socket = UdpSocket(self, port)
        self._udp_sockets[port] = socket
        return socket

    def release_udp_port(self, port: int) -> None:
        """Unbind a UDP port (called by ``UdpSocket.close``)."""
        self._udp_sockets.pop(port, None)

    def send_udp(self, dst_ip: IPv4Address, datagram: UdpDatagram,
                 dscp: int = 0) -> None:
        """Used by :class:`UdpSocket`; applications should use the socket."""
        self.send_ip(dst_ip, IPPROTO_UDP, datagram, dscp=dscp)

    def _deliver_udp(self, packet: IPv4Packet) -> None:
        datagram = coerce(packet.payload, UdpDatagram)
        socket = self._udp_sockets.get(datagram.dst_port)
        if socket is not None and not socket.closed:
            socket.deliver(packet.src, datagram.src_port, datagram.payload, self.sim.now)

    def _alloc_ephemeral(self, in_use: dict[int, object]) -> int:
        port = self._next_ephemeral
        while port in in_use:
            port += 1
            if port > 0xFFFF:
                raise HostError(f"{self.name}: ephemeral ports exhausted")
        self._next_ephemeral = port + 1
        return port

    # ------------------------------------------------------------------
    # IGMP / multicast

    def join_group(self, group: IPv4Address) -> None:
        """Join a multicast group: remember it and emit an IGMP report."""
        if group in self.joined_groups:
            return
        self.joined_groups.add(group)
        self._send_igmp(IgmpMessage.join(group), group)

    def leave_group(self, group: IPv4Address) -> None:
        """Leave a multicast group: forget it and emit an IGMP leave."""
        if group not in self.joined_groups:
            return
        self.joined_groups.discard(group)
        self._send_igmp(IgmpMessage.leave(group), group)

    def _send_igmp(self, message: IgmpMessage, group: IPv4Address) -> None:
        packet = IPv4Packet(self.ip, group, IPPROTO_IGMP, message, ttl=1)
        self._send_frame(group.multicast_mac(), ETHERTYPE_IPV4, packet)
        if self.on_igmp_sent is not None:
            self.on_igmp_sent(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} ip={self.ip} mac={self.mac}>"
