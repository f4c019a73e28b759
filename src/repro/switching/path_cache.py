"""Fabric-level compiled-path cache: cut-through transit for cached flows.

PortLand forwarding is deterministic once PMAC prefixes, fault
overrides, and the flow hash are fixed: a frame's entire
edge→agg→core→agg→edge hop sequence is a pure function of fabric state.
Each switch's :class:`~repro.switching.flow_table.FlowTable` already
memoises its hop's verdict, but the simulator still pays one
scheduled event and one Python dispatch per switch per frame. A
:class:`PathCache` extends the memo from one switch to the whole path —
the megaflow idea of OpenFlow-style datapaths applied end-to-end.

On the first cache-safe frame of a flow at its ingress edge switch, the
cache *compiles* the path: it dry-walks the per-switch stage-2 verdicts
(warming the tables' memos as it goes), recording for every hop the
switch, ingress/egress port indices, matched entry, and traversed link,
plus the net header rewrites (ingress AMAC→PMAC was already applied by
the caller; the egress PMAC→AMAC rewrite is captured from the final
``host:`` entry). Subsequent frames with the same ``(ingress port,
decision key)`` are *launched*: every traversed entry and port counter
is charged, a ``verify.hop`` trace record is synthesized per hop with
the exact timestamp interpreted forwarding would have produced, and one
composite event delivers the frame to the destination host after the
sum of per-link serialization + propagation delays.

What compiled transit deliberately does **not** model is contention
*inside* the fabric: a launched frame never queues behind another frame
on a switch-to-switch link (its latency is the uncongested sum of link
delays), never experiences a drop-tail loss mid-path, and is not
re-examined by intermediate switches. That is the cut-through
approximation; workloads that need queueing fidelity leave the cache
off (it is disabled by default — see ``PortlandConfig.path_cache_entries``).

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
leaves every path too.

A frame already launched when its path is invalidated is handled like an
in-flight frame: at delivery time the stored hops are revalidated
against the physical links; if every link is still up the frame arrives
(a table-only change cannot un-send it), otherwise it is dropped and
counted at the first dead hop's transmit port.
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

    __slots__ = ("key", "ingress", "hops", "links", "entries",
                 "tx_counters", "rx_counters", "switches",
                 "final_port", "final_dst", "alive")

    def __init__(self, key, ingress, hops, links, entries, tx_counters,
                 rx_counters, switches, final_port, final_dst) -> None:
        self.key = key
        self.ingress = ingress
        self.hops = hops
        self.links = links
        self.entries = entries
        self.tx_counters = tx_counters
        self.rx_counters = rx_counters
        self.switches = switches
        self.final_port = final_port
        self.final_dst = final_dst
        self.alive = True

    @property
    def compiled(self) -> bool:
        """False for a negative (uncompilable) verdict."""
        return self.final_port is not None


class PathCache:
    """Shared compiled-path cache for one fabric.

    One instance serves every switch of a fabric (the builder wires it
    up); per-ingress lookup tables live on the switches
    (``PortlandSwitch._path_table``) so the hot probe is a plain dict
    access, while registration/invalidation indexes live here.
    """

    def __init__(self, sim: "Simulator",
                 capacity: int = DEFAULT_PATH_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self._capacity = capacity
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
        self.launches = 0
        self.delivered = 0
        self.dropped_in_flight = 0
        self.invalidated = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Hot path

    def resolve(self, switch, frame: "EthernetFrame",
                in_index: int) -> CompiledPath | None:
        """The compiled path for ``frame`` entering ``switch`` on
        ``in_index``, compiling on first use. ``None`` means this frame
        must take the interpreted per-hop path."""
        key = (in_index, decision_key(frame))
        table = switch._path_table
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

    def launch(self, path: CompiledPath, frame: "EthernetFrame") -> None:
        """Send ``frame`` down ``path`` as one composite event.

        Charges every traversed flow entry and port counter now (the
        cut-through equivalent of per-hop ``touch``/tx/rx accounting),
        synthesizes the per-hop ``verify.hop`` records interpreted
        forwarding would have emitted — with identical timestamps, since
        the accumulated time uses the same float operations as a start
        of transmission in ``Link`` (``transmit``'s free-wire start and
        ``_start_transmission``) — and schedules a single delivery at
        the path's total latency.
        """
        wire_len = frame.wire_length()
        for entry in path.entries:
            entry.packets += 1
            entry.bytes += wire_len
        for counters in path.tx_counters:
            counters.tx_frames += 1
            counters.tx_bytes += wire_len
        for counters in path.rx_counters:
            counters.rx_frames += 1
            counters.rx_bytes += wire_len
        sim = self.sim
        trace = sim.trace
        time = sim.now
        wanted = trace.hop_wanted
        dst = frame.dst.value if wanted else None
        for hop in path.hops:
            if wanted:
                trace.emit(time, "verify.hop", hop.node.name,
                           payload=frame.payload, dst=dst,
                           ethertype=frame.ethertype, entry=hop.entry.name,
                           in_port=hop.in_index)
            time = time + (hop.link.serialization_time(frame, hop.out_port)
                           + hop.link.delay_s)
        self.launches += 1
        sim.schedule_at(time, self._complete, path, frame)

    def _complete(self, path: CompiledPath, frame: "EthernetFrame") -> None:
        """Composite delivery: apply the egress rewrite and hand the
        frame to the destination host.

        If the path was invalidated while this frame was in flight, the
        stored hops are revalidated against the physical links: a dead
        link anywhere drops the frame (counted at that hop's transmit
        port, as interpreted forwarding would); a purely table-driven
        invalidation lets the frame complete, exactly like a frame
        already serialized onto the wire.
        """
        if not path.alive:
            for hop in path.hops:
                link = hop.link
                if (hop.out_port.link is not link or not hop.out_port.enabled
                        or not link.can_carry(hop.out_port)
                        or not hop.rx_port.enabled):
                    hop.out_port.counters.drops += 1
                    self.dropped_in_flight += 1
                    return
        delivered = frame.copy()
        if path.final_dst is not None:
            delivered.dst = path.final_dst
        self.delivered += 1
        path.final_port.node.receive(delivered, path.final_port)

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
        links = tuple(links)
        if final_port is None:
            self.compile_failures += 1
            return CompiledPath(key, ingress, (), links, (), (), (),
                                tuple(switches), None, None)
        final_dst = next((hop.set_dst for hop in reversed(hops)
                          if hop.set_dst is not None), frame.dst)
        return CompiledPath(
            key, ingress, tuple(hops), links,
            tuple(hop.entry for hop in hops),
            tuple(hop.out_port.counters for hop in hops),
            tuple(hop.rx_port.counters for hop in hops),
            tuple(switches), final_port,
            final_dst if final_dst.value != frame.dst.value else None,
        )

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
        table = path.ingress._path_table
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
            "launches": self.launches,
            "delivered": self.delivered,
            "dropped_in_flight": self.dropped_in_flight,
            "invalidated": self.invalidated,
            "evictions": self.evictions,
        }
