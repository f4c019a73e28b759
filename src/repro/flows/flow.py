"""Flow and resolved-path state for the fluid simulation engine.

A :class:`Flow` models one unidirectional transfer as a *rate* over a
pinned hop list instead of a stream of per-frame events. Everything the
engine needs to reproduce frame-path accounting is derived from a
*representative frame* — a real :class:`~repro.net.ethernet.EthernetFrame`
built from the flow's 5-tuple and the fabric manager's PMAC bindings —
so the ECMP hash (and therefore the path) is the exact one the first
packet of an equivalent frame-mode flow would take, and the per-frame
wire length matches what port counters would record.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_UDP, IPv4Packet
from repro.net.link import PER_FRAME_OVERHEAD_BYTES
from repro.net.packet import AppData
from repro.net.udp import UdpDatagram
from repro.policy import class_of_dscp

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.addresses import IPv4Address, MacAddress
    from repro.net.link import Link, Port
    from repro.switching.path_cache import CompiledPath

#: Tolerance (payload bytes) under which a finite flow counts as done —
#: absorbs the float round-trip between rate × Δt advancement and the
#: remaining/rate completion-deadline computation.
COMPLETION_SLACK_BYTES = 1e-3


class FluidTcp:
    """RTT-aware TCP rate-model state for one *greedy* fluid flow.

    Replaces the instant max-min jump with what a bulk TCP transfer over
    the same hop list actually does: nothing until the handshake
    completes (``ready_at`` = start + ARP resolution at both ends + the
    SYN/SYN-ACK round trip), then a window-clocked rate bounded by
    ``min(cwnd, rwnd) * 8 / rtt`` that ramps per RTT (slow-start
    doubling below ``ssthresh``, one MSS per RTT above) and is *cut* to
    the bandwidth-delay product of the allocated share when a bottleneck
    link saturates, and finally a ``tail_s`` drain (last frame crossing
    the remaining hops plus the FIN exchange) before the flow counts as
    complete. All times are derived from the resolved hop list's
    per-link serialization + propagation delays, so the model tracks the
    frame path across topologies and link speeds. See docs/FLOWS.md.
    """

    __slots__ = ("rtt_s", "setup_s", "tail_s", "ready_at", "close_at",
                 "cwnd_bytes", "ssthresh_bytes", "max_window_bytes",
                 "mss_bytes", "last_tick", "cwnd_limited")

    def __init__(self, cwnd_bytes: float, max_window_bytes: float,
                 mss_bytes: float) -> None:
        self.rtt_s = 0.0
        self.setup_s = 0.0
        self.tail_s = 0.0
        #: Absolute time data may start flowing (handshake done).
        self.ready_at = math.inf
        #: Absolute time the FIN exchange completes (set once the fluid
        #: transfer has pushed every byte onto the first link).
        self.close_at: float | None = None
        self.cwnd_bytes = cwnd_bytes
        self.ssthresh_bytes = math.inf
        self.max_window_bytes = max_window_bytes
        self.mss_bytes = mss_bytes
        #: Window-growth clock: cwnd advances once per elapsed rtt_s.
        self.last_tick = math.inf
        #: Whether the last allocation was window-bound (ramping) rather
        #: than link-bound — only ramping flows need per-RTT wakeups.
        self.cwnd_limited = False

    def rate_bound_bps(self) -> float:
        """Window-clocked payload-rate ceiling, in bits/s (cwnd clamped
        by the receive window)."""
        if self.rtt_s <= 0.0:
            return math.inf
        return min(self.cwnd_bytes, self.max_window_bytes) * 8.0 / self.rtt_s


class ResolvedPath:
    """A flow's pinned hop list, in charging-ready form.

    ``segments`` is the full directed-link sequence the fluid occupies —
    the ingress host→edge link first, then one (link, tx port) per hop —
    so capacity constraints and counter charging cover exactly the links
    a frame-mode packet would cross. ``entries`` are the stage-2 flow
    entries to charge, ``hop_records`` the (switch, entry name, in port)
    triples for ``verify.flow`` trace records.

    A path backed by a :class:`CompiledPath` stays valid until the path
    cache invalidates it; a *volatile* path (interpreted-walk fallback,
    used when compilation is refused) carries no invalidation hooks and
    is re-resolved on every engine recomputation instead.

    ``constrained`` marks, per segment, whether the water-filling treats
    the directed link as a shared capacity constraint: exactly where the
    mirrored frame executor actually *queues* — every segment of a
    volatile (interpreted) path, but only the ingress host link of a
    compiled one. That is the cut-through calibration: fluid FCTs agree
    with those of frames whose switches never wait for the wire (the
    reference ``tests/test_flows_smoke.py`` builds); frames forwarded
    hop by hop queue at every hop and finish later, docs/FLOWS.md
    "Deliberate approximations". All segments still count for liveness
    detection, counter charging, and hybrid load push.
    ``seg_ids`` / ``con_ids`` name them (all / constrained only) by
    ``id(tx port)``, the engine's direction-index key, and
    ``capacities`` pairs each with its link direction's object.
    """

    __slots__ = ("segments", "entries", "hop_records", "compiled",
                 "constrained", "seg_ids", "con_ids", "capacities")

    def __init__(self, segments, entries, hop_records,
                 compiled: "CompiledPath | None") -> None:
        self.segments: tuple[tuple["Link", "Port"], ...] = segments
        self.entries = entries
        self.hop_records = hop_records
        self.compiled = compiled
        self.constrained = ((True,) * len(segments) if compiled is None
                            else (True,) + (False,) * (len(segments) - 1))
        self.seg_ids = tuple(id(port) for _link, port in segments)
        self.con_ids = tuple(pid for pid, shared
                             in zip(self.seg_ids, self.constrained) if shared)
        self.capacities = tuple((id(port), link.direction(port))
                                for link, port in segments)

    @property
    def alive(self) -> bool:
        """Whether the pinned hops are still current. Volatile paths are
        never trusted across recomputations: they report dead and force
        a re-resolve (which usually re-derives the identical hops)."""
        return self.compiled is not None and self.compiled.alive


class Flow:
    """One fluid flow: src → dst at up to ``demand_bps``.

    Rates and sizes are in *payload* (goodput) terms — what an
    application-level sender offers and a receiver measures. The engine
    internally converts to on-the-wire gross rates (framing headers plus
    the per-frame preamble/IFG overhead) for capacity math, and back to
    wire byte/frame totals for counter charging.

    ``demand_bps=None`` means greedy (take whatever max-min fair share
    the links allow, like a bulk TCP transfer); ``size_bytes=None``
    means open-ended (a CBR stream that runs until stopped).
    """

    def __init__(
        self,
        src,
        dst_ip: "IPv4Address",
        demand_bps: float | None = None,
        size_bytes: int | None = None,
        sport: int = 20000,
        dport: int = 20000,
        payload_bytes: int = 1000,
        dscp: int = 0,
        name: str | None = None,
        on_complete: Callable[["Flow"], None] | None = None,
    ) -> None:
        if demand_bps is not None and demand_bps <= 0:
            raise ValueError(f"demand_bps must be positive, got {demand_bps}")
        if size_bytes is not None and size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes}")
        if payload_bytes <= 0:
            raise ValueError(f"payload_bytes must be positive, got {payload_bytes}")
        self.src = src
        self.dst_ip = dst_ip
        self.demand_bps = demand_bps
        self.size_bytes = size_bytes
        self.sport = sport
        self.dport = dport
        self.payload_bytes = payload_bytes
        self.dscp = dscp
        #: Serving class (from DSCP): the engine water-fills higher
        #: classes first, mirroring the frame path's strict-priority
        #: egress queues.
        self.tclass = class_of_dscp(dscp)
        self.name = name or f"{src.name}->{dst_ip}:{dport}"
        self.on_complete = on_complete

        self.started_at: float | None = None
        self.completed_at: float | None = None
        #: Payload bytes delivered so far (fluid, fractional).
        self.transferred_bytes = 0.0
        #: Current allocated rate in payload bits/s (0 while stalled).
        self.rate_bps = 0.0
        #: (time, rate_bps) at every rate change — the flow-mode
        #: equivalent of a receiver's arrival timeline; convergence
        #: analyses read outages straight off the zero-rate spans.
        self.rate_log: list[tuple[float, float]] = []
        #: Times this flow's pinned hop list actually changed — a
        #: re-resolve that re-derived the identical path does not count.
        self.reroutes = 0

        # Engine-owned state.
        #: TCP rate-model state — attached by the engine on first path
        #: resolution when the model is enabled and the flow is greedy.
        self.tcp: FluidTcp | None = None
        self._path: ResolvedPath | None = None
        self._path_sig: tuple | None = None
        # Admission number (the canonical flow order), the instant
        # ``transferred_bytes`` was advanced to, the next instant the
        # flow needs a recompute, the allocated rate in gross wire bits/s.
        self._seq = 0
        self._settled_at = 0.0
        self._deadline = math.inf
        self._gross_bps = 0.0
        self._charged_frames = 0
        self._frame: EthernetFrame | None = None
        self._frame_macs: tuple[int, int] | None = None
        self._frame_wire = 0
        self._frame_gross = 0

    # ------------------------------------------------------------------
    # Representative frame

    def representative_frame(self, src_pmac: "MacAddress",
                             dst_pmac: "MacAddress") -> EthernetFrame:
        """The frame the engine resolves the path with — headers chosen
        so :func:`repro.switching.flow_table.decision_key` (and hence the
        ECMP member) equals a real frame of this flow after the ingress
        AMAC→PMAC rewrite. Rebuilt only when a PMAC binding moved (VM
        migration re-homes the flow)."""
        macs = (src_pmac.value, dst_pmac.value)
        if self._frame is None or self._frame_macs != macs:
            packet = IPv4Packet(self.src.ip, self.dst_ip, IPPROTO_UDP,
                                UdpDatagram(self.sport, self.dport,
                                            AppData(self.payload_bytes)),
                                dscp=self.dscp)
            self._frame = EthernetFrame(dst_pmac, src_pmac,
                                        ETHERTYPE_IPV4, packet,
                                        tclass=self.tclass)
            self._frame_macs = macs
            self._frame_wire = self._frame.wire_length()
            self._frame_gross = self._frame_wire + PER_FRAME_OVERHEAD_BYTES
        return self._frame

    @property
    def frame_wire_bytes(self) -> int:
        """Counter-visible bytes per frame (what ``tx_bytes`` records)."""
        return self._frame_wire

    # ------------------------------------------------------------------
    # Unit conversions (payload <-> gross wire occupancy)

    @property
    def gross_per_payload(self) -> float:
        """Wire occupancy per payload byte: headers + preamble/IFG."""
        return self._frame_gross / self.payload_bytes

    @property
    def gross_demand_bps(self) -> float:
        """Offered load in gross wire bits/s (inf for greedy flows)."""
        if self.demand_bps is None:
            return math.inf
        return self.demand_bps * self.gross_per_payload

    # ------------------------------------------------------------------
    # Progress

    @property
    def active(self) -> bool:
        """Started and not yet completed."""
        return self.started_at is not None and self.completed_at is None

    @property
    def stalled(self) -> bool:
        """Running but currently pathless (rate 0)."""
        return self.active and self._path is None

    @property
    def finished_transfer(self) -> bool:
        """Whether a finite flow has delivered its full size."""
        return (self.size_bytes is not None
                and self.size_bytes - self.transferred_bytes
                <= COMPLETION_SLACK_BYTES)

    @property
    def fct(self) -> float | None:
        """Flow completion time, or ``None`` while running."""
        if self.completed_at is None or self.started_at is None:
            return None
        return self.completed_at - self.started_at

    def total_frames(self) -> int:
        """Frame count this flow's transfer corresponds to so far (the
        last frame of a finite transfer is charged in full, as the frame
        path would)."""
        if self.finished_transfer:
            return math.ceil(self.size_bytes / self.payload_bytes)
        return int(self.transferred_bytes / self.payload_bytes)

    def average_rate_bps(self, now: float) -> float:
        """Mean payload rate since start (uses FCT once completed)."""
        if self.started_at is None:
            return 0.0
        elapsed = (self.completed_at or now) - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.transferred_bytes * 8 / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.completed_at is not None
                 else "stalled" if self.stalled else "active"
                 if self.started_at is not None else "new")
        return f"<Flow {self.name} {state} rate={self.rate_bps:.0f}bps>"
