"""The fluid flow engine: max-min rates over compiled paths.

Where the frame path schedules events per *frame* and hop, the
:class:`FlowEngine` schedules one event per *rate change*, and that
event touches only the flows something happened to and the flows
coupled to them. A flow becomes *dirty* on arrival or ``stop_flow``;
when a deadline of its own passes (handshake done, per-RTT window tick,
transfer ETA, FIN drain over); when a
:class:`~repro.switching.path_cache.PathCache` invalidation retired its
compiled path; when a flow leaves a constrained link they shared; and
(hybrid) when the frame load on a link constraining it moved. Stalled
flows (no path — e.g. a partition) and flows on a volatile (uncompiled)
path are re-resolved by every recompute, and by a slow retry tick.

Rates come from *progressive filling* (max-min fairness): all unfrozen
flows rise together until a flow hits its demand or a directed link
saturates; flows crossing a saturated link freeze at their fair share;
repeat. That allocation decomposes exactly over the connected components
of the "share a constrained directed link" graph, so a recompute
settles, re-resolves, water-fills and re-arms only the components of
its dirty flows, walked over a persistent direction → flows index.
Capacity is in gross wire bits (headers plus preamble/IFG) against
:meth:`repro.net.link.Link.capacity_bps`, so a fluid flow occupies
exactly the bandwidth its frames would.

Settlement charges the counters the frame path charges — per-port tx/rx
frames and bytes on every traversed link
(:meth:`~repro.net.link.Link.fluid_charge`) and packet/byte counts on
every matched stage-2 flow entry — so :mod:`repro.metrics.utilization`
works unchanged in either mode. It is per flow and lazy (a flow advances
when it is refilled): call :meth:`FlowEngine.settle_now` before reading
counters mid-run. Deliberate approximations: ``docs/FLOWS.md``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.flows.flow import Flow, FluidTcp, ResolvedPath
from repro.host.tcp.congestion import DEFAULT_MSS, INITIAL_WINDOW_SEGMENTS
from repro.host.tcp.connection import RECEIVE_WINDOW
from repro.net.link import PER_FRAME_OVERHEAD_BYTES
from repro.portland.control import CONTROL_DELAY_S
from repro.portland.switch import PortlandSwitch
from repro.sim.events import PRIORITY_LOW
from repro.sim.process import Timer
from repro.switching.hop_walk import walk_decision_path

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link, Port
    from repro.topology.builder import PortlandFabric

#: Saturation slack for the progressive filling loop, in bits/s — six
#: orders below the 1 Gb/s default link rate, far above float noise.
_EPS_BPS = 1e-3

#: Default re-resolve period while flows are stalled or volatile.
DEFAULT_RETRY_INTERVAL_S = 0.020

#: Hybrid-mode utilization epoch: how often the engine samples frame
#: bytes per direction to refresh the frame-load EWMA (and how fast
#: fluid capacity reacts to foreground bursts).
HYBRID_EPOCH_S = 0.005

#: Gross wire occupancy of a zero-payload TCP control segment (SYN /
#: pure ACK / FIN): the 64-byte minimum Ethernet frame plus preamble and
#: inter-frame gap. Clocks the model's reverse (ACK) direction.
_ACK_GROSS_BYTES = 64 + PER_FRAME_OVERHEAD_BYTES

#: Minimum spare path capacity (gross bits/s) that makes window growth
#: worth waking up for: on a saturated path it would just be cut back
#: next recompute, re-running the AIMD cycle every RTT for nothing.
_MIN_RAMP_HEADROOM_BPS = 1e6

#: Timestamp slack for the ready_at/close_at deadline checks.
_EPS_S = 1e-12

#: Canonical flow order (admission number, never ``id()``) wherever
#: order reaches a float sum, a trace record or a ``schedule`` call.
_BY_SEQ = attrgetter("_seq")


def max_min_allocate(demands: list[float], segs_of: list[list[int]],
                     remaining: dict[int, float],
                     active: set[int] | None = None) -> list[float]:
    """Progressive-filling max-min allocation.

    ``demands[i]`` is flow *i*'s rate ceiling (``inf`` for greedy),
    ``segs_of[i]`` the constrained directed-link ids it occupies, and
    ``remaining`` the spare capacity per directed link id — mutated in
    place so the caller can read post-allocation headroom. ``active``
    restricts which flows participate (others get 0). Returns the
    per-flow rates.

    Invariants (property-tested in ``tests/flows/test_refill_properties``):
    every rate ≤ its demand; per-link allocations sum to ≤ the link's
    starting capacity; and removing a flow improves the survivors in
    the *leximin* order (per-flow monotonicity is genuinely false for
    multi-link max-min). Unfrozen flows share one ``level``, so each
    round freezes a prefix of the demand order plus the flows of the
    links it saturated, and the per-link counts shrink as they freeze.
    """
    rates = [0.0] * len(demands)
    flows = range(len(demands)) if active is None else active
    if len(flows) == 1:
        (i,) = flows
        segs = segs_of[i]
        if len(set(segs)) == len(segs):  # one round, each share whole
            delta = demands[i]
            for pid in segs:
                if remaining[pid] < delta:
                    delta = remaining[pid]
            if 0.0 < delta < math.inf:
                rates[i] = delta
                for pid in segs:
                    remaining[pid] -= delta
            return rates
    order = sorted(flows, key=demands.__getitem__)
    users: dict[int, list[int]] = {}
    for i in order:
        for pid in segs_of[i]:
            users.setdefault(pid, []).append(i)
    count = {pid: len(ids) for pid, ids in users.items()}  # unfrozen only
    unfrozen, level, head = set(order), 0.0, 0  # order[:head] is frozen
    while unfrozen:
        while order[head] not in unfrozen:
            head += 1
        delta = demands[order[head]] - level
        for pid, n in count.items():
            share = remaining[pid] / n
            if share < delta:
                delta = share
        if not 0.0 < delta < math.inf:
            delta = 0.0  # a round without a step: subtracting 0 is exact
        level += delta
        saturated = []
        for pid, n in count.items():
            left = remaining[pid] = remaining[pid] - delta * n
            if left <= _EPS_BPS:
                saturated.append(pid)
        frozen = []
        while head < len(order) and level >= demands[order[head]] - _EPS_BPS:
            if order[head] in unfrozen:
                frozen.append(order[head])
                unfrozen.remove(order[head])
            head += 1
        for pid in saturated:
            for i in users[pid]:
                if i in unfrozen:
                    frozen.append(i)
                    unfrozen.remove(i)
        if not frozen:
            break
        for i in frozen:
            rates[i] = level
            for pid in segs_of[i]:
                count[pid] -= 1
                if not count[pid]:
                    del count[pid]
    for i in unfrozen:
        rates[i] = level
    return rates


class FlowEngine:
    """Fluid-mode executor for one fabric.

    Built by the topology builder when ``PortlandConfig.flow_mode`` is
    set, on a fabric the builder gives a path cache: it resolves each
    flow's hop list, and its invalidation re-resolves the flows pinned
    to a retired path.
    """

    def __init__(self, fabric: "PortlandFabric",
                 retry_interval_s: float = DEFAULT_RETRY_INTERVAL_S) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.path_cache = fabric.path_cache
        self.retry_interval_s = retry_interval_s
        #: Hybrid fluid+frame execution: fluid allocations slow frame
        #: serialization, epoch-sampled frame load shrinks fluid capacity.
        self.hybrid = fabric.config.flow_mode == "hybrid"
        self.path_cache.add_invalidation_listener(self._on_invalidation)
        #: Admitted, not-yet-completed flows (stalled ones included).
        self.flows: list[Flow] = []
        #: Completed (or stopped) flows, in completion order.
        self.finished: list[Flow] = []
        self._recompute_pending = False
        #: Flows whose rate may be stale: the next recompute's seeds.
        self._dirty: dict[Flow, None] = {}
        #: Stalled or volatile-path flows: re-resolved by every
        #: recompute, and the reason the retry timer runs.
        self._unstable: dict[Flow, None] = {}
        #: Lazy min-heap of (deadline, admission number, flow); an entry
        #: is current while it equals the flow's ``_deadline``.
        self._deadlines: list[tuple[float, int, Flow]] = []
        #: Directed links fluid flows cross, in joining order: id(tx
        #: port) -> (link, tx port, {flow: constrained there?}). Walked
        #: for components, summed for hybrid loads, sampled every epoch.
        self._fluid_dirs: dict[int, tuple["Link", "Port",
                                          dict[Flow, bool]]] = {}
        self._completion_timer = Timer(self.sim, self._kick,
                                       priority=PRIORITY_LOW)
        self._retry_timer = Timer(self.sim, self._kick, priority=PRIORITY_LOW)
        #: Directions joined, left or re-rated since :meth:`_sync_dirs`.
        self._touched_dirs: dict[int, None] = {}
        # Hybrid capacity-sharing state (all empty outside hybrid runs).
        #: Per-direction (frame tx-byte watermark, timestamp) at the last
        #: sample, seeded when the direction joins: each meters its own
        #: bytes over its own window, never a stale mark or another's span.
        self._frame_seen: dict[int, tuple[int, float]] = {}
        #: Frame-load EWMA per direction (gross bits/s).
        self._frame_ewma: dict[int, float] = {}
        self._epoch_timer = Timer(self.sim, self._epoch_tick,
                                  priority=PRIORITY_LOW)
        # Counters (see stats()).
        self.flows_started = 0
        self.flows_completed = 0
        self.recomputes = 0
        #: Sum of refilled component sizes over all recomputes.
        self.flows_refilled = 0
        self.reresolutions = 0
        self.stall_events = 0
        #: Utilization epochs sampled (hybrid mode only).
        self.epoch_ticks = 0
        #: Times the TCP model cut a window to its share's BDP.
        self.tcp_cuts = 0
        #: Times a refilled flow got less than its demand (its max-min
        #: share hit a saturated link). Zero over a whole run certifies
        #: the demand-limited regime, where flows do not couple through
        #: shared links.
        self.bottleneck_events = 0

    # ------------------------------------------------------------------
    # Flow admission / teardown

    def start_flow(self, src, dst_ip, **kwargs) -> Flow:
        """Admit a new :class:`Flow` now (kwargs go to the Flow
        constructor) and trigger a rate recomputation."""
        flow = Flow(src, dst_ip, **kwargs)
        flow.started_at = flow._settled_at = self.sim.now
        flow._seq = self.flows_started
        self.flows.append(flow)
        self.flows_started += 1
        trace = self.sim.trace
        if trace.wants("flow.start"):
            trace.emit(self.sim.now, "flow.start", flow.name,
                       src=flow.src.name, dst=str(flow.dst_ip),
                       demand_bps=flow.demand_bps, size=flow.size_bytes)
        self._dirty[flow] = None
        self._kick()
        return flow

    def stop_flow(self, flow: Flow) -> None:
        """Terminate an open-ended flow now (bytes so far stay charged)."""
        if flow.completed_at is not None:
            return
        self._settle(flow, self.sim.now)
        self._finish(flow, completed=False)
        self._kick()

    # ------------------------------------------------------------------
    # Event scheduling

    def _kick(self) -> None:
        """Coalesce same-instant triggers (arrivals, invalidation
        fan-outs, timer pops) into one recompute event, at low priority
        so every state change at this timestamp is visible to it."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(0.0, self._recompute, priority=PRIORITY_LOW)

    def _on_invalidation(self) -> None:
        """Dirty the flows whose compiled path the invalidation retired
        and every stalled or volatile one (it may have opened them a
        path). One that touched nobody — negative verdicts, paths of
        finished flows — schedules nothing."""
        for flow in self.flows:
            if flow._path is None or not flow._path.alive:
                self._dirty[flow] = None
        if self._dirty:
            self._kick()

    def _recompute(self) -> None:
        self._recompute_pending = False
        self.recomputes += 1
        now = self.sim.now
        dirty, heap = self._dirty, self._deadlines
        while heap and heap[0][0] <= now + _EPS_S:
            deadline, _seq, flow = heappop(heap)
            if deadline == flow._deadline:
                flow._deadline = math.inf
                dirty[flow] = None
        dirty.update(self._unstable)
        # Bring every dirty flow's path up to date first: the components
        # walked below are then those of the final sharing graph.
        seeds: dict[Flow, None] = {}
        while dirty:  # in marking order; a flow that leaves marks more
            batch = list(dirty)
            dirty.clear()
            for flow in batch:
                if flow not in seeds and self._touch(flow, now):
                    seeds[flow] = None
        done: set[Flow] = set()  # membership only, never iterated
        for seed in sorted(seeds, key=_BY_SEQ):
            if seed in done:
                continue
            done.add(seed)
            component = [seed]
            for flow in component:
                if flow._path is None:
                    continue
                for pid in flow._path.con_ids:
                    members = self._fluid_dirs[pid][2]
                    for other, constrains in members.items():
                        if constrains and other not in done:
                            done.add(other)
                            component.append(other)
            self._fill([flow for flow in component
                        if flow.completed_at is None
                        and (flow in seeds or self._touch(flow, now))], now)
        # A flow that left mid-pass dirtied neighbours already refilled.
        for flow in done.intersection(dirty):
            del dirty[flow]
        self._sync_dirs()
        self._arm_timers(now)

    def _touch(self, flow: Flow, now: float) -> bool:
        """Bring one flow up to ``now``: settle it, complete it if its
        transfer (or FIN drain) is over, re-resolve a missing or no
        longer trusted path. False when the flow has left."""
        if flow.completed_at is not None:
            return False
        self._settle(flow, now)
        if flow.finished_transfer:
            tcp = flow.tcp
            # TCP flows linger for the drain tail: the last frame has to
            # cross the remaining hops and the FIN exchange to complete.
            if tcp is not None and tcp.close_at is None:
                tcp.close_at = now + tcp.tail_s
                tcp.cwnd_limited = False
                self._set_rate(flow, 0.0)
            if tcp is None or now >= tcp.close_at - _EPS_S:
                self._finish(flow, completed=True)
                return False
        if flow._path is None or not flow._path.alive:
            self._resolve(flow)
        return True

    # ------------------------------------------------------------------
    # Settlement (advance fluid state to now)

    def settle_now(self) -> None:
        """Advance transfer totals and counters to the current simulated
        time without changing rates — call before reading byte counters
        or ``transferred_bytes`` at an arbitrary instant."""
        now = self.sim.now
        for flow in self.flows:
            self._settle(flow, now)

    def _settle(self, flow: Flow, now: float) -> None:
        dt = now - flow._settled_at
        flow._settled_at = now
        if dt <= 0 or flow.rate_bps <= 0:
            return
        delta = flow.rate_bps * dt / 8
        if flow.size_bytes is not None:
            delta = min(delta, flow.size_bytes - flow.transferred_bytes)
        flow.transferred_bytes += delta
        self._charge(flow)

    def _charge(self, flow: Flow) -> None:
        frames = flow.total_frames()
        delta = frames - flow._charged_frames
        if delta <= 0:
            return
        flow._charged_frames = frames
        path = flow._path
        if path is None:  # pragma: no cover - rate>0 implies a path
            return
        nbytes = delta * flow.frame_wire_bytes
        for link, port in path.segments:
            link.fluid_charge(port, delta, nbytes)
        for entry in path.entries:
            entry.packets += delta
            entry.bytes += nbytes

    def _finish(self, flow: Flow, completed: bool) -> None:
        if completed and flow.size_bytes is not None:
            # Snap float residue so totals and frame counts are exact.
            flow.transferred_bytes = float(flow.size_bytes)
            self._charge(flow)
        flow.completed_at = self.sim.now
        self._set_rate(flow, 0.0)
        self._repath(flow, None)
        flow._deadline = math.inf
        self._dirty.pop(flow, None)
        self._unstable.pop(flow, None)
        self.flows.remove(flow)
        self.finished.append(flow)
        self.flows_completed += 1
        trace = self.sim.trace
        if trace.wants("flow.complete"):
            trace.emit(self.sim.now, "flow.complete", flow.name,
                       bytes=flow.transferred_bytes, fct=flow.fct,
                       completed=completed)
        if completed and flow.on_complete is not None:
            flow.on_complete(flow)

    # ------------------------------------------------------------------
    # Path resolution and the direction index

    def _repath(self, flow: Flow, path: ResolvedPath | None) -> None:
        """Move ``flow`` onto ``path`` (``None``: off the fabric) in the
        direction index. Flows sharing a constrained direction it leaves
        gain capacity, so they become dirty. Emptied directions retire
        in :meth:`_sync_dirs`, so one the new path also crosses keeps
        its hybrid metering state."""
        dirs = self._fluid_dirs
        touched = self._touched_dirs
        old = flow._path
        if old is not None:
            for pid, shared in zip(old.seg_ids, old.constrained):
                members = dirs[pid][2]
                del members[flow]
                touched[pid] = None
                if shared:
                    for other, constrains in members.items():
                        if constrains:
                            self._dirty[other] = None
        flow._path = path
        if path is not None and path.compiled is not None:
            self._unstable.pop(flow, None)
        else:
            self._unstable[flow] = None
        if path is None:
            return
        for pid, (link, port), shared in zip(path.seg_ids, path.segments,
                                             path.constrained):
            entry = dirs.get(pid)
            if entry is None:
                entry = dirs[pid] = (link, port, {})
                if self.hybrid:
                    self._frame_seen[pid] = (link.frame_tx_bytes(port),
                                             self.sim.now)
            entry[2][flow] = shared
            touched[pid] = None

    def _resolve(self, flow: Flow) -> None:
        had_path = flow._path is not None
        resolved = self._resolve_path(flow)
        self._repath(flow, resolved)
        if resolved is None:
            if had_path or flow._path_sig is None:
                self.stall_events += 1
                flow._path_sig = ()
                if self.sim.trace.wants("flow.stall"):
                    self.sim.trace.emit(self.sim.now, "flow.stall",
                                        flow.name, src=flow.src.name,
                                        dst=str(flow.dst_ip))
            return
        self.reresolutions += 1
        if flow.demand_bps is None:
            self._tcp_attach(flow, resolved)
        sig = resolved.hop_records
        if sig != flow._path_sig:
            if had_path or flow._path_sig == ():
                flow.reroutes += 1
            flow._path_sig = sig
            trace = self.sim.trace
            if trace.wants("verify.flow"):
                trace.emit(self.sim.now, "verify.flow", flow.name,
                           hops=sig, dst=flow._frame.dst.value,
                           src=flow.src.name,
                           compiled=resolved.compiled is not None)

    def _resolve_path(self, flow: Flow) -> ResolvedPath | None:
        """Pin ``flow`` to the hop list the live decision layer would
        forward its frames down: through the compiled-path cache when the
        flow compiles (sharing its invalidation hooks), else a volatile
        interpreted walk re-checked every recomputation. ``None`` when
        the destination is unreachable right now (unregistered PMAC,
        dead ingress, table miss, loop, or dead link on the walk)."""
        fm = self.fabric.fabric_manager
        src_record = fm.hosts_by_ip.get(flow.src.ip)
        dst_record = fm.hosts_by_ip.get(flow.dst_ip)
        if src_record is None or dst_record is None:
            return None
        frame = flow.representative_frame(src_record.pmac, dst_record.pmac)
        nic = flow.src.nic
        ingress_link = nic.link
        if ingress_link is None or ingress_link.capacity_bps(nic) <= 0:
            return None
        edge_port = ingress_link.other_end(nic)
        edge = edge_port.node
        if not isinstance(edge, PortlandSwitch):
            return None
        compiled = self.path_cache.resolve(edge, frame, edge_port.index)
        if compiled is not None:
            hops = compiled.hops
        else:
            hops, final_port = walk_decision_path(edge, edge_port.index,
                                                  frame, require_live=True)
            if final_port is None:
                return None
        return ResolvedPath(
            ((ingress_link, nic),) + tuple(
                (hop.link, hop.out_port) for hop in hops),
            tuple(hop.entry for hop in hops),
            tuple((hop.node.name, hop.entry.name, hop.in_index)
                  for hop in hops),
            compiled)

    # ------------------------------------------------------------------
    # RTT-aware fluid TCP model (greedy flows only)

    def _tcp_attach(self, flow: Flow, path: ResolvedPath) -> None:
        """(Re)derive the flow's TCP timing from its resolved hop list.

        Called on every (re)resolution: a reroute updates the RTT and
        tail terms to the new path while the window state (cwnd,
        ssthresh, growth clock) carries over, as on a live connection
        the fabric re-routes. The reverse (ACK) direction is taken over
        the same links: exact on symmetric topologies, a close bound
        elsewhere.
        """
        gross = flow._frame_gross
        fwd = rev = 0.0
        for link, _port in path.segments:
            fwd += gross * 8.0 / link.rate_bps + link.delay_s
            rev += _ACK_GROSS_BYTES * 8.0 / link.rate_bps + link.delay_s
        first = path.segments[0][0]
        config = self.fabric.config
        # One ARP resolution through the edge's proxy + fabric manager:
        # two switch software traversals, the control round trip, one FM
        # service slot, the request/reply crossing the access link.
        arp_s = (2.0 * config.agent_delay_s + 2.0 * CONTROL_DELAY_S
                 + config.fm_service_time_s
                 + 2.0 * (_ACK_GROSS_BYTES * 8.0 / first.rate_bps
                          + first.delay_s))
        tcp = flow.tcp
        if tcp is None:
            tcp = flow.tcp = FluidTcp(
                cwnd_bytes=float(INITIAL_WINDOW_SEGMENTS * DEFAULT_MSS),
                max_window_bytes=float(RECEIVE_WINDOW),
                mss_bytes=float(DEFAULT_MSS))
            # Handshake: both ends ARP-resolve their peer (before the SYN
            # / the SYN-ACK), then those cross the path once each way.
            tcp.setup_s = 2.0 * arp_s + 2.0 * rev
            start = flow.started_at
            if start is None or start < self.sim.now:
                start = self.sim.now
            tcp.ready_at = start + tcp.setup_s
            tcp.last_tick = tcp.ready_at
        tcp.rtt_s = fwd + rev
        # Drain tail once every byte is clocked onto the first link: the
        # last frame store-and-forwards on, then the FIN exchange returns.
        tcp.tail_s = (fwd - gross * 8.0 / first.rate_bps) + rev

    def _advance_window(self, flow: Flow, now: float) -> None:
        """Grow a ready TCP flow's window by the RTTs elapsed since its
        last growth tick: slow-start doubling below ssthresh, one MSS
        per RTT above. Growth accrues lazily, at refill; :meth:`_arm`
        sets a per-RTT deadline only while ``cwnd_limited``."""
        tcp = flow.tcp
        if tcp is None or tcp.rtt_s <= 0.0 or now < tcp.ready_at:
            return
        if not tcp.cwnd_limited:
            # Ack-clocked at its share (or capped): growth would be cut
            # right back next refill, so the clock idles.
            tcp.last_tick = now
            return
        while (now - tcp.last_tick >= tcp.rtt_s - _EPS_S
               and tcp.cwnd_bytes < tcp.max_window_bytes):
            tcp.last_tick += tcp.rtt_s
            if tcp.cwnd_bytes < tcp.ssthresh_bytes:
                tcp.cwnd_bytes = min(tcp.cwnd_bytes * 2.0,
                                     tcp.max_window_bytes)
            else:
                tcp.cwnd_bytes = min(tcp.cwnd_bytes + tcp.mss_bytes,
                                     tcp.max_window_bytes)
        if tcp.cwnd_bytes >= tcp.max_window_bytes:
            # Growth is capped: stop accumulating idle RTTs so a later
            # cut restarts the clock from the cut, not from here.
            tcp.last_tick = now

    def _tcp_cut(self, flow: Flow, tcp: FluidTcp, gross_rate: float) -> None:
        """Bottleneck saturation: ack-clocking pins the window to the
        allocated share's bandwidth-delay product (floored at one MSS),
        and future growth is additive from there."""
        payload_bps = gross_rate / flow.gross_per_payload
        bdp = max(tcp.mss_bytes, payload_bps * tcp.rtt_s / 8.0)
        if bdp < tcp.cwnd_bytes:
            tcp.cwnd_bytes = bdp
            tcp.ssthresh_bytes = bdp
            self.tcp_cuts += 1
        tcp.last_tick = self.sim.now
        tcp.cwnd_limited = False

    # ------------------------------------------------------------------
    # Max-min fair rate allocation (progressive filling)

    def _fill(self, component: list[Flow], now: float) -> None:
        """Re-derive the rates and deadlines of one coupling component
        (already settled and resolved), in admission order."""
        component.sort(key=_BY_SEQ)
        self.flows_refilled += len(component)
        routed: list[Flow] = []
        for flow in component:
            self._advance_window(flow, now)
            if flow._path is None:
                self._set_rate(flow, 0.0)
            else:
                routed.append(flow)
        remaining: dict[int, float] = {}
        segs_of = [flow._path.con_ids for flow in routed]
        demands = [0.0] * len(routed)
        alive_flows: set[int] = set()
        for i, flow in enumerate(routed):
            alive = True
            # Link.fluid_capacity_bps, which the link keeps current.
            for pid, direction in flow._path.capacities:
                capacity = remaining[pid] = direction.fluid_capacity
                if capacity <= 0.0:
                    alive = False
            if alive:
                alive_flows.add(i)
            tcp = flow.tcp
            if flow.finished_transfer:
                # FIN drain: every byte is on the wire already, the flow
                # holds no bandwidth while it waits out its tail.
                continue
            if tcp is None:
                demands[i] = flow.gross_demand_bps
            elif now >= tcp.ready_at - _EPS_S:  # else: handshake in flight
                demands[i] = min(flow.gross_demand_bps,
                                 tcp.rate_bound_bps() * flow.gross_per_payload)
        rates = self._allocate_by_class(routed, demands, segs_of, remaining,
                                        alive_flows)
        for i, flow in enumerate(routed):
            if i not in alive_flows:
                # A dead direction: the pinned path went stale with no
                # invalidation reaching us (volatile paths have no carrier
                # hooks). Drop it; the next recompute re-resolves.
                self._set_rate(flow, 0.0)
                self._repath(flow, None)
                flow._path_sig = ()
                continue
            tcp = flow.tcp
            if rates[i] < demands[i] - _EPS_BPS:
                self.bottleneck_events += 1
                if tcp is not None:
                    self._tcp_cut(flow, tcp, rates[i])
            elif tcp is not None and demands[i] > 0.0:
                # Window-bound at its ceiling: ramp per RTT, while the
                # path has spare capacity the growth could claim.
                headroom = min(remaining[pid] for pid in segs_of[i])
                tcp.cwnd_limited = (tcp.cwnd_bytes < tcp.max_window_bytes
                                    and headroom > _MIN_RAMP_HEADROOM_BPS)
            self._set_rate(flow, rates[i] / flow.gross_per_payload, rates[i])
        for flow in component:
            self._arm(flow, now)

    def _allocate_by_class(self, routed: list[Flow], demands: list[float],
                           segs_of: list[list[int]],
                           remaining: dict[int, float],
                           alive_flows: set[int]) -> list[float]:
        """Strict-priority water-filling: fill each traffic class in
        descending order against the capacity the classes above it left
        (``remaining`` is mutated in place) — the fluid analogue of the
        frame path's strict-priority egress queues. A single class (the
        default: everything is class 0) is exactly one allocation."""
        classes = {flow.tclass for flow in routed}
        if len(classes) <= 1:
            return max_min_allocate(demands, segs_of, remaining,
                                    active=alive_flows)
        rates = [0.0] * len(routed)
        for tclass in sorted(classes, reverse=True):
            active = {i for i in alive_flows if routed[i].tclass == tclass}
            class_rates = max_min_allocate(demands, segs_of, remaining,
                                           active=active)
            for i in active:
                rates[i] = class_rates[i]
        return rates

    def _set_rate(self, flow: Flow, rate_bps: float,
                  gross_bps: float = 0.0) -> None:
        if flow.rate_bps != rate_bps:
            flow.rate_bps = rate_bps
            flow.rate_log.append((self.sim.now, rate_bps))
        if flow._gross_bps != gross_bps:
            flow._gross_bps = gross_bps
            if self.hybrid and flow._path is not None:
                self._touched_dirs.update(dict.fromkeys(flow._path.seg_ids))

    # ------------------------------------------------------------------
    # Hybrid capacity sharing (fluid <-> frame coupling)

    def _sync_dirs(self) -> None:
        """Retire the touched directions that emptied (clearing fluid
        *and* frame load: the link is back to exact single-mode
        behaviour) and push the others' hybrid fluid load, re-summed
        from the members (never by deltas: idle is exactly 0.0)."""
        dirs = self._fluid_dirs
        for pid in self._touched_dirs:
            link, port, members = dirs[pid]
            if not members:
                del dirs[pid]
            if self.hybrid:
                link.set_fluid_load(
                    port, sum(flow._gross_bps for flow in members))
                if not members:
                    link.set_frame_load(port, 0.0)
                    self._frame_seen.pop(pid, None)
                    self._frame_ewma.pop(pid, None)
        self._touched_dirs.clear()

    def _epoch_tick(self) -> None:
        """Coarse utilization epoch: re-estimate the frame load on every
        direction fluid crosses (EWMA of per-epoch frame tx bytes) and
        dirty only the flows constrained by one whose estimate moved
        materially — a steady frame mix costs a sampling pass, no refill."""
        self.epoch_ticks += 1
        now = self.sim.now
        for pid, (link, port, members) in self._fluid_dirs.items():
            frame_bytes = link.frame_tx_bytes(port)
            prev_bytes, prev_t = self._frame_seen[pid]  # seeded on joining
            self._frame_seen[pid] = (frame_bytes, now)
            elapsed = now - prev_t
            inst = ((frame_bytes - prev_bytes) * 8.0 / elapsed
                    if elapsed > 0.0 else 0.0)
            old = self._frame_ewma.get(pid, 0.0)
            new = 0.5 * old + 0.5 * inst
            if new < 1.0:
                new = 0.0
            self._frame_ewma[pid] = new
            link.set_frame_load(port, new)
            if abs(new - old) > 0.005 * link.rate_bps:
                for flow, constrains in members.items():
                    if constrains:
                        self._dirty[flow] = None
        if self._dirty:
            self._kick()
        if self.flows:
            self._epoch_timer.start(HYBRID_EPOCH_S)

    # ------------------------------------------------------------------
    # Timers

    def _arm(self, flow: Flow, now: float) -> None:
        """Queue the next instant ``flow`` itself needs a recompute: the
        end of its FIN drain, else of its handshake, else the earlier of
        its next window tick (while window-bound) and its transfer ETA."""
        deadline = math.inf
        tcp = flow.tcp
        if tcp is not None and tcp.close_at is not None:
            deadline = tcp.close_at
        elif tcp is not None and now < tcp.ready_at - _EPS_S:
            deadline = tcp.ready_at
        else:
            if tcp is not None and tcp.cwnd_limited:
                deadline = tcp.last_tick + tcp.rtt_s
            if flow.size_bytes is not None and flow.rate_bps > 0:
                deadline = min(deadline, now + (
                    flow.size_bytes - flow.transferred_bytes)
                    * 8 / flow.rate_bps)
        if deadline != flow._deadline:
            flow._deadline = deadline
            if deadline != math.inf:
                heappush(self._deadlines, (deadline, flow._seq, flow))

    def _arm_timers(self, now: float) -> None:
        heap = self._deadlines
        while heap and heap[0][0] != heap[0][2]._deadline:
            heappop(heap)  # superseded, or its flow left
        if heap:
            self._completion_timer.start(max(0.0, heap[0][0] - now))
        else:
            self._completion_timer.stop()
        if self._unstable:
            self._retry_timer.start(self.retry_interval_s)
        else:
            self._retry_timer.stop()
        if not self.flows:
            self._epoch_timer.stop()
        elif self.hybrid and not self._epoch_timer.armed:
            self._epoch_timer.start(HYBRID_EPOCH_S)

    # ------------------------------------------------------------------
    # Observability

    def stats(self) -> dict[str, int]:
        """Counter snapshot."""
        return {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_active": len(self.flows),
            "flows_stalled": sum(1 for f in self.flows if f.stalled),
            "recomputes": self.recomputes,
            "flows_refilled": self.flows_refilled,
            "reresolutions": self.reresolutions,
            "stall_events": self.stall_events,
            "bottleneck_events": self.bottleneck_events,
            "tcp_cuts": self.tcp_cuts,
            "epoch_ticks": self.epoch_ticks,
        }
