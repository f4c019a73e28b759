"""Fabric-level path resolution for the fluid flow engine.

PortLand forwarding is deterministic once PMAC prefixes, fault
overrides, and the flow hash are fixed: a frame's entire
edge→agg→core→agg→edge hop sequence is a pure function of fabric state.
A :class:`PathCache` memoises that function per (ingress switch,
ingress port, decision key) — the megaflow idea of OpenFlow-style
datapaths applied end-to-end — for the fluid engine
(:mod:`repro.flows`), which pins every flow to the hop list its frames
would take. Frames themselves are always forwarded hop by hop, through
each switch's :class:`~repro.switching.flow_table.FlowTable`.

On the first resolution of a key the cache *compiles* the path: it
dry-walks the per-switch stage-2 verdicts (warming the tables' memos as
it goes), recording for every hop the switch, ingress/egress port
indices, matched entry, destination rewrite and traversed link.

Compilation refuses (and caches a negative verdict) whenever any hop is
not provably pure: a non-``cache_safe`` table, an rx tap, a mid-path
rewrite-table match, punts/multicast/empty actions, a reflected output,
a down/disabled/unwired port, or a lossy link.

One rule retires a verdict, positive or negative: a compiled path dies
when a table or a link its walk read changes —

* a flow-table **or** rewrite-table mutation of any switch the walk
  entered (change listeners);
* a carrier-state change of any link the walk read, the one a refused
  walk stopped at included (``Link.add_state_listener`` — fail,
  fail_direction, recover, detach).

Nothing else does: a control message that leaves every table as it was
leaves every path too. Invalidation listeners hear every retirement, so
the flows pinned to a dead path re-resolve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.switching.flow_table import decision_key
from repro.switching.hop_walk import walk_decision_path

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ethernet import EthernetFrame
    from repro.sim.simulator import Simulator

#: Default per-ingress-switch capacity (same sizing as the decision cache).
DEFAULT_PATH_CAPACITY = 4096


class CompiledPath:
    """A fully compiled ingress→host path (or a negative verdict).

    A negative verdict (``final_port is None``) records that this key is
    not compilable under the current fabric state; it is registered
    against every switch and link the failed dry-walk read, so the next
    relevant state change retires it.
    """

    __slots__ = ("key", "ingress", "hops", "links", "switches",
                 "final_port", "alive")

    def __init__(self, key, ingress, hops, links, switches,
                 final_port) -> None:
        self.key = key
        self.ingress = ingress
        self.hops = hops
        self.links = links
        self.switches = switches
        self.final_port = final_port
        self.alive = True

    @property
    def compiled(self) -> bool:
        """False for a negative (uncompilable) verdict."""
        return self.final_port is not None


class PathCache:
    """Shared compiled-path cache for one fabric.

    One instance serves every switch of a fabric (the builder makes it
    in flow mode): the per-ingress verdict tables, keyed (in port,
    decision key), and the registration/invalidation indexes all live
    here.
    """

    def __init__(self, sim: "Simulator",
                 capacity: int = DEFAULT_PATH_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self._capacity = capacity
        #: Per-ingress-switch verdict tables, keyed (in port, decision key).
        self._tables: dict = {}
        # path registration indexes: everything that must die when a
        # switch's tables or a link's carrier state change.
        self._by_switch: dict = {}
        self._by_link: dict = {}
        #: Called as ``listener()`` after every invalidation that killed
        #: at least one path. The flow-level engine
        #: (:mod:`repro.flows`) hangs its rate-recompute trigger off this:
        #: any fabric-state change that retires a compiled path — fault
        #: overrides, link disable/enable, carrier loss — must also
        #: re-resolve and re-fill the flows pinned to it.
        self._invalidation_listeners: list = []
        self.hits = 0
        self.misses = 0
        self.no_path_hits = 0
        self.compiles = 0
        self.compile_failures = 0
        self.invalidated = 0
        self.evictions = 0

    def resolve(self, switch, frame: "EthernetFrame",
                in_index: int) -> CompiledPath | None:
        """The compiled path for ``frame`` entering ``switch`` on
        ``in_index``, compiling on first use. ``None`` means the key is
        not compilable (the caller walks the live decision layer)."""
        key = (in_index, decision_key(frame))
        table = self._tables.get(switch)
        if table is None:
            table = self._tables[switch] = {}
        path = table.get(key)
        if path is not None:
            if path.final_port is None:
                self.no_path_hits += 1
                return None
            self.hits += 1
            return path
        self.misses += 1
        if not switch.table.cache_safe:
            return None
        path = self._compile(switch, frame, in_index, key)
        if len(table) >= self._capacity:
            self._kill(next(iter(table.values())))
            self.evictions += 1
        table[key] = path
        self._register(path)
        return path if path.final_port is not None else None

    # ------------------------------------------------------------------
    # Compilation

    def _compile(self, ingress, frame: "EthernetFrame", in_index: int,
                 key) -> CompiledPath:
        """Dry-walk the per-switch verdicts from ``ingress`` to a host
        port, or return a negative verdict at the first impure hop."""
        self.compiles += 1
        switches: list = []
        links: list = []
        hops, final_port = walk_decision_path(ingress, in_index, frame,
                                              pure=True, visited=switches,
                                              links=links)
        if final_port is None:
            self.compile_failures += 1
            hops = ()
        return CompiledPath(key, ingress, tuple(hops), tuple(links),
                            tuple(switches), final_port)

    # ------------------------------------------------------------------
    # Registration and invalidation

    def _register(self, path: CompiledPath) -> None:
        for switch in path.switches:
            bucket = self._by_switch.get(switch)
            if bucket is None:
                bucket = self._by_switch[switch] = set()
                switch.table.add_change_listener(
                    lambda s=switch: self._on_switch_change(s))
                switch.rewrite_table.add_change_listener(
                    lambda s=switch: self._on_switch_change(s))
            bucket.add(path)
        for link in path.links:
            bucket = self._by_link.get(link)
            if bucket is None:
                bucket = self._by_link[link] = set()
                link.add_state_listener(
                    lambda l=link: self._on_link_change(l))
            bucket.add(path)

    def _kill(self, path: CompiledPath) -> None:
        path.alive = False
        table = self._tables[path.ingress]
        if table.get(path.key) is path:
            del table[path.key]
        for switch in path.switches:
            bucket = self._by_switch.get(switch)
            if bucket is not None:
                bucket.discard(path)
        for link in path.links:
            bucket = self._by_link.get(link)
            if bucket is not None:
                bucket.discard(path)

    def _on_switch_change(self, switch) -> None:
        self._invalidate(self._by_switch.get(switch), switch.name,
                         "table-change")

    def _on_link_change(self, link) -> None:
        self._invalidate(self._by_link.get(link), link.name, "link-state")

    def add_invalidation_listener(self, listener) -> None:
        """Call ``listener()`` after every invalidation that retired at
        least one path (positive or negative verdict)."""
        self._invalidation_listeners.append(listener)

    def _invalidate(self, bucket, source: str, reason: str) -> None:
        if not bucket:
            return
        killed = len(bucket)
        for path in list(bucket):
            self._kill(path)
        self.invalidated += killed
        trace = self.sim.trace
        if trace.wants("switch.path_flush"):
            trace.emit(self.sim.now, "switch.path_flush", source,
                       reason=reason, killed=killed)
        for listener in self._invalidation_listeners:
            listener()

    # ------------------------------------------------------------------
    # Observability

    def stats(self) -> dict[str, int]:
        """Counter snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "no_path_hits": self.no_path_hits,
            "compiles": self.compiles,
            "compile_failures": self.compile_failures,
            "invalidated": self.invalidated,
            "evictions": self.evictions,
        }
