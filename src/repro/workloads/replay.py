"""Event-loop-free forwarding replay over a converged fabric.

These helpers push synthetic frames through the *decision layer* of a
live fabric without scheduling simulator events: the per-hop variant
calls ``PortlandSwitch._forwarding_decision`` (exactly what ``receive``
runs) and follows output ports across the real wiring; the compiled
variant probes the :class:`~repro.switching.path_cache.PathCache`'s
per-ingress tables. The tier-1 perf smoke test and the path-cache tests
use them to measure the steady-state cost of forwarding itself,
isolated from event-kernel and host-stack overhead — and to cross-check
that both layers produce identical paths.
"""

from __future__ import annotations

from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_UDP, IPv4Packet
from repro.net.packet import AppData
from repro.net.udp import UdpDatagram
from repro.switching.flow_table import decision_key
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


def compile_paths(fabric, workload) -> int:
    """Warm the fabric's :class:`PathCache` for every workload frame
    (what the first packet of each flow does in a live run). Returns the
    number of frames whose path compiled."""
    path_cache = fabric.path_cache
    compiled = 0
    for node, in_index, frame in workload:
        if path_cache.resolve(node, frame, in_index) is not None:
            compiled += 1
    return compiled


def compiled_signature(node, in_index: int, frame) -> tuple | None:
    """The compiled hop sequence for one frame (None when uncached)."""
    path = node._path_table.get((in_index, decision_key(frame)))
    if path is None or not path.compiled:
        return None
    return tuple((hop.node.name, hop.out_port.index) for hop in path.hops)


def replay_compiled(workload) -> tuple[int, int]:
    """Forward every frame through its compiled path — the steady-state
    cut-through cost: one memoised key read plus one dict probe per
    *frame* (not per hop). Returns (hops, delivered), counted from the
    compiled paths so the totals are comparable with
    :func:`replay_decisions`."""
    hops = 0
    delivered = 0
    for node, in_index, frame in workload:
        path = node._path_table[(in_index, decision_key(frame))]
        hops += len(path.hops)
        delivered += 1
    return hops, delivered
