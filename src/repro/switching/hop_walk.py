"""The decision-layer hop walk, and the one record of a hop.

Several layers need to answer the same question — "which switch-by-switch
path would the live decision layer send this frame down?" — without
scheduling simulator events: the compiled-path cache
(:mod:`repro.switching.path_cache`), the flow engine's path resolver
(:mod:`repro.flows`), the event-free replay the perf smoke and
path-cache tests drive (:mod:`repro.workloads.replay`) and the
trace-equivalence tests. This module is the single copy of that walk.

The walk calls ``_forwarding_decision`` — exactly what ``receive`` runs
after the rewrite stage — and follows the egress port of the plan it
returns across the real wiring until the frame would leave on a
host-facing port. It charges no counters: it is a pure query against
current state (it does warm the decision caches it asks). A plan's
destination rewrite is recorded on the hop and applied, to a copy, only
if the walk goes on to another switch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.portland.switch import PortlandSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ethernet import EthernetFrame
    from repro.net.link import Port

#: Walk depth bound: a fat-tree path is at most 5 switches; anything
#: longer is a loop the caller must treat as a dead end.
MAX_WALK_HOPS = 16


class Hop:
    """One switch traversal: where the frame came in, the stage-2 entry
    that decided, the destination rewrite its plan applies (or None),
    and the egress port, link (as wired when walked) and far port."""

    __slots__ = ("node", "in_index", "entry", "set_dst", "link", "out_port",
                 "rx_port")

    def __init__(self, node, in_index, entry, set_dst, link, out_port,
                 rx_port) -> None:
        self.node = node
        self.in_index = in_index
        self.entry = entry
        self.set_dst = set_dst
        self.link = link
        self.out_port = out_port
        self.rx_port = rx_port


def walk_decision_path(node, in_index: int, frame: "EthernetFrame",
                       require_live: bool = False, pure: bool = False,
                       visited: list | None = None,
                       links: list | None = None,
                       ) -> tuple[list[Hop], "Port | None"]:
    """Follow the per-switch decision layer from ``node`` to a host port.

    Returns ``(hops, final_port)`` where ``final_port`` is the host-facing
    receive port the frame would be delivered to, or ``None`` when the
    walk dead-ends: a table miss, a verdict with no unicast output
    (punt, multicast, drop), an output reflected out of the ingress, an
    unwired output port, a revisited switch (forwarding loop), or — with
    ``require_live`` — a hop whose link cannot currently carry the
    frame. ``hops`` always holds the traversals completed before the
    dead end, ``visited`` (if given) collects the switches entered and
    ``links`` (if given) the links read: each hop's, and the one a walk
    stopped at because it could not (or, ``pure``, would not) use it.

    ``pure`` is the compiled-path cache's mode: live, and every hop
    provably a function of (ingress port, decision key) alone — it also
    dead-ends at a switch that is not a two-stage PortLand pipeline, has
    a table the decision key cannot index (not ``cache_safe``) or an rx
    tap, or (past the first) would rewrite the frame in stage 1, and at
    a lossy link. Each is checked *before* the switch is asked for its
    verdict, so a refused walk warms no decision cache beyond the last
    pure switch.
    """
    hops: list[Hop] = []
    if visited is None:
        visited = []
    live = require_live or pure
    for _depth in range(MAX_WALK_HOPS):
        if node in visited:
            return hops, None
        if pure and not isinstance(node, PortlandSwitch):
            return hops, None  # nothing to ask, nothing to register on
        visited.append(node)
        if pure and (not node.table.cache_safe or node.rx_tap is not None
                     or (hops and node.rewrite_table.lookup(
                         frame, in_index) is not None)):
            return hops, None
        plan = node._forwarding_decision(frame, in_index)
        # No plan is a miss; no port is software, replication, a drop,
        # or a rewrite only the interpreter applies in order.
        if plan is None:
            return hops, None
        entry, _actions, out_port, set_dst = plan
        if out_port is None or out_port.index == in_index:
            return hops, None
        link = out_port.link
        if link is None:
            return hops, None
        if links is not None:
            links.append(link)
        rx_port = link.other_end(out_port)
        if live and not (out_port.enabled and rx_port.enabled
                         and link.can_carry(out_port)):
            return hops, None
        if pure and link.loss_rate > 0:
            return hops, None
        hops.append(Hop(node, in_index, entry, set_dst, link, out_port,
                        rx_port))
        node = rx_port.node
        if not isinstance(node, PortlandSwitch):
            return hops, rx_port
        in_index = rx_port.index
        if set_dst is not None:
            frame = frame.copy()
            frame.dst = set_dst
    return hops, None
