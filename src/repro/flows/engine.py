"""The fluid flow engine: max-min rates over compiled paths.

Where the frame path schedules one (composite) event per *frame*, the
:class:`FlowEngine` schedules one event per *rate change*: flows hold a
constant rate between recomputation points, and state only advances at

* flow arrival and completion (and explicit ``stop_flow``),
* every :class:`~repro.switching.path_cache.PathCache` invalidation that
  retires a compiled path — fault overrides (FaultUpdate/FaultClear),
  Disable/EnableLink, any carrier-state change of a traversed link — at
  which point affected flows re-resolve through the live decision layer
  and all rates are re-filled,
* a slow retry tick while any flow is stalled (no current path — e.g. a
  partition) or riding a volatile (uncompiled) path.

Rates come from *progressive filling* (max-min fairness): all unfrozen
flows rise together until a flow hits its demand or a directed link
saturates; flows crossing a saturated link freeze at their fair share;
repeat. Capacity accounting is in gross wire bits (headers plus
preamble/IFG) against :meth:`repro.net.link.Link.capacity_bps`, so a
fluid flow occupies exactly the bandwidth its frames would.

At every settlement the engine charges the same counters the frame path
charges — per-port tx/rx frames and bytes on every traversed link
(:meth:`~repro.net.link.Link.fluid_charge`, including the ingress
host→edge link) and packet/byte counts on every matched stage-2 flow
entry — so :mod:`repro.metrics.utilization` snapshots, ``by_layer``, and
``imbalance`` work unchanged in either mode.

Deliberate approximations (see ``docs/FLOWS.md``): no per-packet
latency, loss, or queue occupancy; during the instant between a
mid-interval link death and the recompute it triggers, in-transfer fluid
is charged like frames already on the wire.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.flows.flow import Flow, FluidTcp, ResolvedPath
from repro.host.tcp.congestion import DEFAULT_MSS, INITIAL_WINDOW_SEGMENTS
from repro.host.tcp.connection import RECEIVE_WINDOW
from repro.net.link import PER_FRAME_OVERHEAD_BYTES
from repro.sim.events import PRIORITY_LOW
from repro.sim.process import Timer
from repro.switching.hop_walk import walk_decision_path
from repro.switching.switch import FlowSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link, Port
    from repro.topology.builder import PortlandFabric

#: Saturation slack for the progressive filling loop, in bits/s — six
#: orders below the 1 Gb/s default link rate, far above float noise.
_EPS_BPS = 1e-3

#: Default re-resolve period while flows are stalled or volatile.
DEFAULT_RETRY_INTERVAL_S = 0.020

#: Gross wire occupancy of a zero-payload TCP control segment (SYN /
#: pure ACK / FIN): the 64-byte minimum Ethernet frame plus preamble and
#: inter-frame gap. Clocks the model's reverse (ACK) direction.
_ACK_GROSS_BYTES = 64 + PER_FRAME_OVERHEAD_BYTES

#: Minimum spare path capacity (gross bits/s) that makes window growth
#: worth waking up for. A window-bound flow on a saturated path would
#: just be cut back next recompute — ramp ticks there would re-run the
#: whole AIMD cycle every RTT for nothing.
_MIN_RAMP_HEADROOM_BPS = 1e6

#: Timestamp slack for the ready_at/close_at deadline checks.
_EPS_S = 1e-12


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
    the *leximin* order — the sorted survivor rate vector never drops
    lexicographically (per-flow monotonicity is genuinely false for
    multi-link max-min: freeing one link can let a neighbor grow and
    squeeze a third flow elsewhere).
    """
    rates = [0.0] * len(demands)
    unfrozen = (set(range(len(demands))) if active is None
                else set(active))
    for _round in range(len(demands) + 1):
        if not unfrozen:
            break
        members: dict[int, int] = {}
        for i in unfrozen:
            for pid in segs_of[i]:
                members[pid] = members.get(pid, 0) + 1
        delta = min(demands[i] - rates[i] for i in unfrozen)
        for pid, count in members.items():
            share = remaining[pid] / count
            if share < delta:
                delta = share
        if delta > 0 and not math.isinf(delta):
            for i in unfrozen:
                rates[i] += delta
            for pid, count in members.items():
                remaining[pid] -= delta * count
        frozen = {
            i for i in unfrozen
            if rates[i] >= demands[i] - _EPS_BPS
            or any(remaining[pid] <= _EPS_BPS for pid in segs_of[i])
        }
        if not frozen:
            break
        unfrozen -= frozen
    return rates


class FlowEngine:
    """Fluid-mode executor for one fabric.

    Built by the topology builder when ``PortlandConfig.flow_mode`` is
    set (which also forces the compiled-path cache on — resolution and
    invalidation ride the same machinery as cut-through transit).
    """

    def __init__(self, fabric: "PortlandFabric",
                 retry_interval_s: float = DEFAULT_RETRY_INTERVAL_S) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.path_cache = fabric.path_cache
        self.retry_interval_s = retry_interval_s
        config = fabric.config
        #: Hybrid fluid+frame execution: push fluid allocations onto the
        #: links (slowing frame serialization there) and subtract the
        #: epoch-sampled frame load from the capacity water-filling sees.
        self.hybrid = config.flow_mode == "hybrid"
        self.epoch_s = config.hybrid_epoch_s
        if self.path_cache is not None:
            self.path_cache.add_invalidation_listener(self._on_invalidation)
        #: Admitted, not-yet-completed flows (stalled ones included).
        self.flows: list[Flow] = []
        #: Completed (or stopped) flows, in completion order.
        self.finished: list[Flow] = []
        self._last_settle = self.sim.now
        self._recompute_pending = False
        self._completion_timer = Timer(self.sim, self._kick,
                                       priority=PRIORITY_LOW)
        self._retry_timer = Timer(self.sim, self._kick, priority=PRIORITY_LOW)
        # Hybrid capacity-sharing state (all empty outside hybrid runs).
        #: Directed links fluid flows currently cross: id(port) -> (link,
        #: tx port). The epoch tick samples frame load on exactly these.
        self._fluid_dirs: dict[int, tuple["Link", "Port"]] = {}
        #: Per-direction epoch accumulator: (frame tx-byte watermark,
        #: timestamp) at the last sample. Seeded when a direction joins
        #: the fluid set, so each direction meters only its own bytes
        #: over its own elapsed window — directions that join mid-epoch
        #: (or rejoin after retirement) never inherit another epoch's
        #: span or a stale watermark.
        self._frame_seen: dict[int, tuple[int, float]] = {}
        #: Frame-load EWMA per direction (gross bits/s).
        self._frame_ewma: dict[int, float] = {}
        self._epoch_timer = Timer(self.sim, self._epoch_tick,
                                  priority=PRIORITY_LOW)
        # Counters (see stats()).
        self.flows_started = 0
        self.flows_completed = 0
        self.recomputes = 0
        self.reresolutions = 0
        self.stall_events = 0
        #: Utilization epochs sampled (hybrid mode only).
        self.epoch_ticks = 0
        #: Times the TCP model cut a window to its share's BDP.
        self.tcp_cuts = 0
        #: Times a routed flow was allocated less than its demand (its
        #: max-min share hit a saturated link). Zero over a whole run
        #: certifies the run was demand-limited — the regime in which
        #: flows do not couple through shared links, which is what the
        #: sharded kernel's per-shard fluid engines rely on (each shard
        #: computes rates from its own flows only; see docs/PERF.md).
        self.bottleneck_events = 0

    # ------------------------------------------------------------------
    # Flow admission / teardown

    def start_flow(self, src, dst_ip, **kwargs) -> Flow:
        """Admit a new :class:`Flow` now (kwargs go to the Flow
        constructor) and trigger a rate recomputation."""
        flow = Flow(src, dst_ip, **kwargs)
        flow.started_at = self.sim.now
        self.flows.append(flow)
        self.flows_started += 1
        trace = self.sim.trace
        if trace.wants("flow.start"):
            trace.emit(self.sim.now, "flow.start", flow.name,
                       src=flow.src.name, dst=str(flow.dst_ip),
                       demand_bps=flow.demand_bps, size=flow.size_bytes)
        self._kick()
        return flow

    def stop_flow(self, flow: Flow) -> None:
        """Terminate an open-ended flow now (bytes so far stay charged)."""
        if flow.completed_at is not None:
            return
        self._settle()
        self._finish(flow, completed=False)
        self._kick()

    # ------------------------------------------------------------------
    # Event scheduling

    def _kick(self) -> None:
        """Coalesce any number of same-instant triggers (arrivals,
        invalidation fan-outs, timer pops) into one recompute event,
        run at low priority so every state change at this timestamp is
        visible to the re-resolve."""
        if self._recompute_pending:
            return
        self._recompute_pending = True
        self.sim.schedule(0.0, self._recompute, priority=PRIORITY_LOW)

    def _on_invalidation(self, _source: str, _reason: str) -> None:
        if self.flows:
            self._kick()

    def _recompute(self) -> None:
        self._recompute_pending = False
        self.recomputes += 1
        self._settle()
        now = self.sim.now
        for flow in [f for f in self.flows if f.finished_transfer]:
            tcp = flow.tcp
            if tcp is None:
                self._finish(flow, completed=True)
                continue
            # TCP flows linger for the drain tail: the last frame still
            # has to cross the remaining hops and the FIN exchange has
            # to complete before the sender's FCT clock stops.
            if tcp.close_at is None:
                tcp.close_at = now + tcp.tail_s
                tcp.cwnd_limited = False
                self._set_rate(flow, 0.0)
            if now >= tcp.close_at - _EPS_S:
                self._finish(flow, completed=True)
        self._resolve_all()
        self._advance_windows()
        self._refill()
        self._arm_timers()

    # ------------------------------------------------------------------
    # Settlement (advance fluid state to now)

    def settle_now(self) -> None:
        """Advance transfer totals and counters to the current simulated
        time without changing rates — call before reading byte counters
        or ``transferred_bytes`` at an arbitrary instant."""
        self._settle()

    def _settle(self) -> None:
        now = self.sim.now
        dt = now - self._last_settle
        self._last_settle = now
        if dt <= 0:
            return
        for flow in self.flows:
            if flow.rate_bps <= 0:
                continue
            delta = flow.rate_bps * dt / 8
            if flow.size_bytes is not None:
                delta = min(delta, flow.size_bytes - flow.transferred_bytes)
                if delta <= 0:
                    continue
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
    # Path resolution

    def _resolve_all(self) -> None:
        for flow in self.flows:
            path = flow._path
            if path is not None and path.alive:
                continue
            had_path = path is not None
            flow._path = resolved = self._resolve_path(flow)
            if resolved is None:
                if had_path or flow._path_sig is None:
                    self.stall_events += 1
                    flow._path_sig = ()
                    if self.sim.trace.wants("flow.stall"):
                        self.sim.trace.emit(self.sim.now, "flow.stall",
                                            flow.name, src=flow.src.name,
                                            dst=str(flow.dst_ip))
                continue
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
        if not isinstance(edge, FlowSwitch):
            return None
        compiled = None
        if self.path_cache is not None and hasattr(edge, "_path_table"):
            compiled = self.path_cache.resolve(edge, frame, edge_port.index)
        if compiled is not None:
            segments = ((ingress_link, nic),) + tuple(
                (hop.link, hop.out_port) for hop in compiled.hops)
            hop_records = tuple(
                (hop.switch_name, hop.entry_name, hop.in_index)
                for hop in compiled.hops)
            # Cut-through transit never queues: only the ingress host
            # link (a real Link queue in frame mode too) is a shared
            # capacity constraint. See ResolvedPath.constrained.
            return ResolvedPath(segments, compiled.entries, hop_records,
                                compiled,
                                constrained=(True,)
                                + (False,) * len(compiled.hops))
        hops, final_port = walk_decision_path(edge, edge_port.index, frame,
                                              require_live=True)
        if final_port is None:
            return None
        segments = ((ingress_link, nic),) + tuple(
            (hop.out_port.link, hop.out_port) for hop in hops)
        entries = tuple(hop.entry for hop in hops)
        hop_records = tuple((hop.node.name, hop.entry.name, hop.in_index)
                            for hop in hops)
        return ResolvedPath(segments, entries, hop_records, None)

    # ------------------------------------------------------------------
    # RTT-aware fluid TCP model (greedy flows only)

    def _tcp_attach(self, flow: Flow, path: ResolvedPath) -> None:
        """(Re)derive the flow's TCP timing from its resolved hop list.

        Called on every (re)resolution: a reroute updates the RTT, setup
        and tail terms to the new path while the window state (cwnd,
        ssthresh, growth clock) carries over — exactly what a live
        connection experiences when the fabric re-routes it. The reverse
        (ACK) direction is approximated over the same links, which is
        exact on symmetric topologies and a close bound elsewhere.
        """
        gross = flow._frame_gross
        fwd = rev = 0.0
        for link, _port in path.segments:
            fwd += gross * 8.0 / link.rate_bps + link.delay_s
            rev += _ACK_GROSS_BYTES * 8.0 / link.rate_bps + link.delay_s
        first = path.segments[0][0]
        config = self.fabric.config
        # One ARP resolution through the edge's proxy + fabric manager:
        # two switch software traversals, the control-network round
        # trip, one FM service slot, and the request/reply pair crossing
        # the host's access link.
        arp_s = (2.0 * config.agent_delay_s + 2.0 * config.control_delay_s
                 + config.fm_service_time_s
                 + 2.0 * (_ACK_GROSS_BYTES * 8.0 / first.rate_bps
                          + first.delay_s))
        tcp = flow.tcp
        if tcp is None:
            tcp = flow.tcp = FluidTcp(
                cwnd_bytes=float(INITIAL_WINDOW_SEGMENTS * DEFAULT_MSS),
                max_window_bytes=float(RECEIVE_WINDOW),
                mss_bytes=float(DEFAULT_MSS))
            # Handshake: both ends ARP-resolve their peer (sender before
            # the SYN, receiver before the SYN-ACK), then the SYN /
            # SYN-ACK control frames cross the path once each way.
            tcp.setup_s = 2.0 * arp_s + 2.0 * rev
            start = flow.started_at
            if start is None or start < self.sim.now:
                start = self.sim.now
            tcp.ready_at = start + tcp.setup_s
            tcp.last_tick = tcp.ready_at
        tcp.rtt_s = fwd + rev
        # Drain tail once the fluid transfer has clocked every byte onto
        # the first link: the last frame crosses the remaining hops
        # (store-and-forward), then the FIN exchange returns.
        tcp.tail_s = (fwd - gross * 8.0 / first.rate_bps) + rev

    def _advance_windows(self) -> None:
        """Grow every ready TCP flow's window by the RTTs elapsed since
        its last growth tick: slow-start doubling below ssthresh, one
        MSS per RTT (additive increase) above. Growth accrues lazily at
        recompute points; the per-RTT wakeups in :meth:`_arm_timers`
        only fire while a flow is window-bound with path headroom."""
        now = self.sim.now
        for flow in self.flows:
            tcp = flow.tcp
            if tcp is None or tcp.rtt_s <= 0.0 or now < tcp.ready_at:
                continue
            if not tcp.cwnd_limited:
                # Ack-clocked at its share (or capped): growth would be
                # cut right back next refill, so the clock idles.
                tcp.last_tick = now
                continue
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
                # Growth is capped: stop accumulating idle RTTs so a
                # later cut restarts the clock from the cut, not from
                # here.
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
            tcp.cuts += 1
            self.tcp_cuts += 1
        tcp.last_tick = self.sim.now
        tcp.cwnd_limited = False

    # ------------------------------------------------------------------
    # Max-min fair rate allocation (progressive filling)

    def _refill(self) -> None:
        routed: list[Flow] = []
        for flow in self.flows:
            if flow._path is None:
                self._set_rate(flow, 0.0)
            else:
                routed.append(flow)
        if not routed:
            if self.hybrid:
                self._sync_hybrid_dirs({}, {})
            return
        now = self.sim.now
        remaining: dict[int, float] = {}
        dir_map: dict[int, tuple["Link", "Port"]] = {}
        #: Constrained directed links per flow — the water-filling set.
        segs_of: list[list[int]] = []
        #: Every directed link per flow — liveness + hybrid load push.
        all_of: list[list[int]] = []
        dead: set[int] = set()
        for flow in routed:
            seg_ids = []
            con_ids = []
            constrained = flow._path.constrained
            for si, (link, port) in enumerate(flow._path.segments):
                pid = id(port)
                if pid not in remaining:
                    # Capacity net of measured frame load in hybrid mode
                    # (floored well above zero there, so frame
                    # congestion is never mistaken for a dead carrier);
                    # identical to capacity_bps in pure fluid mode.
                    remaining[pid] = link.fluid_capacity_bps(port)
                    dir_map[pid] = (link, port)
                seg_ids.append(pid)
                if constrained[si]:
                    con_ids.append(pid)
            all_of.append(seg_ids)
            segs_of.append(con_ids)
        # A dead direction (capacity 0) means the pinned path went stale
        # without an invalidation reaching us (volatile fallback paths
        # have no carrier hooks): drop the path so the next recompute
        # re-resolves, and allocate nothing meanwhile.
        demands = [0.0] * len(routed)
        for i, flow in enumerate(routed):
            tcp = flow.tcp
            if flow.finished_transfer:
                # FIN drain: every byte is on the wire already, the flow
                # holds no bandwidth while it waits out its tail.
                demands[i] = 0.0
            elif tcp is not None:
                if now < tcp.ready_at - _EPS_S:
                    demands[i] = 0.0  # handshake still in flight
                else:
                    demands[i] = min(flow.gross_demand_bps,
                                     tcp.rate_bound_bps()
                                     * flow.gross_per_payload)
            else:
                demands[i] = flow.gross_demand_bps
        alive_flows: set[int] = set()
        for i, seg_ids in enumerate(all_of):
            if any(remaining[pid] <= 0.0 for pid in seg_ids):
                dead.add(i)
            else:
                alive_flows.add(i)
        rates = self._allocate_by_class(routed, demands, segs_of, remaining,
                                        alive_flows)
        loads: dict[int, float] = {}
        for i, flow in enumerate(routed):
            if i in dead:
                flow._path = None
                flow._path_sig = ()
                self._set_rate(flow, 0.0)
                continue
            tcp = flow.tcp
            if rates[i] < demands[i] - _EPS_BPS:
                self.bottleneck_events += 1
                if tcp is not None:
                    self._tcp_cut(flow, tcp, rates[i])
            elif tcp is not None and demands[i] > 0.0:
                # Window-bound at its ceiling: ramp per RTT, but only
                # while the path has spare capacity the growth could
                # actually claim.
                headroom = min(remaining[pid] for pid in segs_of[i])
                tcp.cwnd_limited = (tcp.cwnd_bytes < tcp.max_window_bytes
                                    and headroom > _MIN_RAMP_HEADROOM_BPS)
            self._set_rate(flow, rates[i] / flow.gross_per_payload)
            if self.hybrid and rates[i] > 0.0:
                for pid in all_of[i]:
                    loads[pid] = loads.get(pid, 0.0) + rates[i]
        if self.hybrid:
            self._sync_hybrid_dirs(dir_map, loads)

    def _allocate_by_class(self, routed: list[Flow], demands: list[float],
                           segs_of: list[list[int]],
                           remaining: dict[int, float],
                           alive_flows: set[int]) -> list[float]:
        """Strict-priority water-filling: fill each traffic class in
        descending order, each against the capacity the classes above it
        left behind (``remaining`` is mutated in place between rounds) —
        the fluid analogue of the frame path's strict-priority egress
        queues. With a single class present (the default: everything is
        class 0), this is exactly one max-min allocation, bit-identical
        to the pre-policy engine."""
        classes = {flow.tclass for flow in routed}
        if len(classes) <= 1:
            return max_min_allocate(demands, segs_of, remaining,
                                    active=alive_flows)
        rates = [0.0] * len(routed)
        for tclass in sorted(classes, reverse=True):
            active = {i for i in alive_flows
                      if routed[i].tclass == tclass}
            if not active:
                continue
            class_rates = max_min_allocate(demands, segs_of, remaining,
                                           active=active)
            for i in active:
                rates[i] = class_rates[i]
        return rates

    def _set_rate(self, flow: Flow, rate_bps: float) -> None:
        if flow.rate_bps != rate_bps:
            flow.rate_bps = rate_bps
            flow.rate_log.append((self.sim.now, rate_bps))

    # ------------------------------------------------------------------
    # Hybrid capacity sharing (fluid <-> frame coupling)

    def _sync_hybrid_dirs(self, dir_map: dict, loads: dict) -> None:
        """Push this round's fluid allocations onto the links and retire
        directions fluid no longer crosses (clearing their fluid *and*
        frame load so the links return to exact single-mode behaviour)."""
        for pid, (link, port) in self._fluid_dirs.items():
            if pid not in dir_map:
                link.set_fluid_load(port, 0.0)
                link.set_frame_load(port, 0.0)
                self._frame_seen.pop(pid, None)
                self._frame_ewma.pop(pid, None)
        now = self.sim.now
        for pid, (link, port) in dir_map.items():
            link.set_fluid_load(port, loads.get(pid, 0.0))
            if pid not in self._frame_seen:
                self._frame_seen[pid] = (link.frame_tx_bytes(port), now)
        self._fluid_dirs = dir_map

    def _epoch_tick(self) -> None:
        """Coarse utilization epoch: re-estimate the frame path's load
        on every direction fluid flows cross (EWMA over the per-epoch
        frame tx bytes) and trigger a recompute only when some
        direction's estimate moved materially — so a steady frame mix
        costs one cheap sampling pass per epoch, not a refill."""
        self.epoch_ticks += 1
        now = self.sim.now
        changed = False
        for pid, (link, port) in self._fluid_dirs.items():
            frame_bytes = link.frame_tx_bytes(port)
            prev = self._frame_seen.get(pid)
            self._frame_seen[pid] = (frame_bytes, now)
            if prev is None:
                inst = 0.0
            else:
                prev_bytes, prev_t = prev
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
                changed = True
        if changed and self.flows:
            self._kick()
        if self.flows:
            self._epoch_timer.start(self.epoch_s)

    # ------------------------------------------------------------------
    # Timers

    def _arm_timers(self) -> None:
        now = self.sim.now
        next_done = math.inf
        any_volatile = False
        any_stalled = False
        for flow in self.flows:
            if flow._path is None:
                any_stalled = True
            elif flow._path.compiled is None:
                any_volatile = True
            tcp = flow.tcp
            if tcp is not None:
                if tcp.close_at is not None:
                    # FIN drain: wake exactly when the tail completes.
                    next_done = min(next_done, tcp.close_at - now)
                    continue
                if now < tcp.ready_at - _EPS_S:
                    next_done = min(next_done, tcp.ready_at - now)
                    continue
                if tcp.cwnd_limited:
                    next_done = min(next_done,
                                    tcp.last_tick + tcp.rtt_s - now)
            if flow.size_bytes is not None and flow.rate_bps > 0:
                eta = (flow.size_bytes - flow.transferred_bytes) * 8 / flow.rate_bps
                next_done = min(next_done, eta)
        if math.isinf(next_done):
            self._completion_timer.stop()
        else:
            self._completion_timer.start(max(0.0, next_done))
        if any_stalled or any_volatile:
            self._retry_timer.start(self.retry_interval_s)
        else:
            self._retry_timer.stop()
        if self.hybrid:
            if self.flows:
                if not self._epoch_timer.armed:
                    self._epoch_timer.start(self.epoch_s)
            else:
                self._epoch_timer.stop()

    # ------------------------------------------------------------------
    # Observability

    def stats(self) -> dict[str, int]:
        """Counter snapshot (aggregatable via ``stats.aggregate_counters``)."""
        return {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_active": len(self.flows),
            "flows_stalled": sum(1 for f in self.flows if f.stalled),
            "recomputes": self.recomputes,
            "reresolutions": self.reresolutions,
            "stall_events": self.stall_events,
            "bottleneck_events": self.bottleneck_events,
            "tcp_cuts": self.tcp_cuts,
            "epoch_ticks": self.epoch_ticks,
        }
