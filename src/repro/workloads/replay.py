"""Event-loop-free forwarding replay over a converged fabric.

These helpers push synthetic frames through the *decision layer* of a
live fabric without scheduling simulator events: they call
``FlowTable.decide`` on each switch's table (exactly what ``receive``
runs) and follow output ports across the real wiring. The tier-1 perf
smoke test and the path-cache tests use them to count the steady-state
cost of forwarding itself, isolated from event-kernel and host-stack
overhead — and to cross-check that the flow engine's
:class:`~repro.switching.path_cache.PathCache` resolves the paths frames
take.
"""

from __future__ import annotations

from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_UDP, IPv4Packet
from repro.net.packet import AppData
from repro.net.udp import UdpDatagram
from repro.switching.hop_walk import walk_decision_path


def all_to_all_frames(fabric, flows_per_pair: int = 4) -> list:
    """(ingress switch, ingress port index, frame) for every ordered host
    pair, ``flows_per_pair`` distinct UDP flows each, addressed to the
    PMAC a proxy-ARP reply would hand the sender."""
    fm = fabric.fabric_manager
    hosts = fabric.host_list()
    workload = []
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            record = fm.hosts_by_ip[dst.ip]
            for flow in range(flows_per_pair):
                packet = IPv4Packet(src.ip, dst.ip, IPPROTO_UDP,
                                    UdpDatagram(10_000 + flow, 80, AppData(64)))
                frame = EthernetFrame(record.pmac, src.mac,
                                      ETHERTYPE_IPV4, packet)
                ingress = src.nic.peer
                workload.append((ingress.node, ingress.index, frame))
    return workload


def replay_decisions(workload) -> tuple[int, int]:
    """Forward every frame hop-by-hop through the real per-switch
    decision path (the shared :func:`walk_decision_path` walker),
    following output ports across the live wiring until the frame leaves
    on a host port. Returns (hops, delivered)."""
    hops = 0
    delivered = 0
    for node, in_index, frame in workload:
        walked, final_port = walk_decision_path(node, in_index, frame)
        hops += len(walked)
        if final_port is not None:
            delivered += 1
    return hops, delivered


def decision_signature(node, in_index: int, frame) -> tuple:
    """The ((switch name, out port), ...) hop sequence the per-switch
    decision path would take for one frame."""
    walked, _final_port = walk_decision_path(node, in_index, frame)
    return tuple((hop.node.name, hop.out_port.index) for hop in walked)
