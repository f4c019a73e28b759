"""Shared decision-layer hop walker.

Several layers need to answer the same question — "which switch-by-switch
path would the live decision layer send this frame down?" — without
scheduling simulator events: the replay benchmarks
(:mod:`repro.workloads.replay`), the trace-equivalence tests, and the
flow-level simulation engine's fallback path resolver
(:mod:`repro.flows`). This module is the single copy of that walk.

The walk calls ``_forwarding_decision`` — exactly what ``receive`` runs
after the rewrite stage — and follows the egress port of the plan it
returns across the real wiring until the frame would leave on a
host-facing port. It does *not* apply the plan's destination rewrite
(it only matters on the final egress hop, after the path is already
determined) and it does not charge any counters: it is a pure query
against current state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.switching.switch import FlowSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ethernet import EthernetFrame
    from repro.net.link import Port

#: Walk depth bound: a fat-tree path is at most 5 switches; anything
#: longer is a loop the caller must treat as a dead end.
MAX_WALK_HOPS = 16


class DecisionHop:
    """One switch traversal of a decision-layer walk."""

    __slots__ = ("node", "in_index", "entry", "out_index", "out_port",
                 "rx_port")

    def __init__(self, node, in_index, entry, out_index, out_port,
                 rx_port) -> None:
        self.node = node
        self.in_index = in_index
        self.entry = entry
        self.out_index = out_index
        self.out_port = out_port
        self.rx_port = rx_port


def walk_decision_path(node, in_index: int, frame: "EthernetFrame",
                       require_live: bool = False,
                       ) -> tuple[list[DecisionHop], "Port | None"]:
    """Follow the per-switch decision layer from ``node`` to a host port.

    Returns ``(hops, final_port)`` where ``final_port`` is the host-facing
    receive port the frame would be delivered to, or ``None`` when the
    walk dead-ends: a table miss, a verdict with no unicast output
    (punt, multicast, drop), an unwired output port, a revisited switch
    (forwarding loop), or — with ``require_live`` — a hop whose link
    cannot currently carry the frame. ``hops`` always holds the
    traversals completed before the dead end.
    """
    hops: list[DecisionHop] = []
    visited: set[int] = set()
    for _depth in range(MAX_WALK_HOPS):
        if id(node) in visited:
            return hops, None
        visited.add(id(node))
        plan = node._forwarding_decision(frame, in_index)
        if plan is None or plan.port is None:
            return hops, None
        out_port = plan.port
        link = out_port.link
        if link is None:
            return hops, None
        rx_port = link.other_end(out_port)
        if require_live and not (out_port.enabled and rx_port.enabled
                                 and link.can_carry(out_port)):
            return hops, None
        hops.append(DecisionHop(node, in_index, plan.entry, out_port.index,
                                out_port, rx_port))
        if isinstance(rx_port.node, FlowSwitch):
            node, in_index = rx_port.node, rx_port.index
            continue
        return hops, rx_port
    return hops, None
