"""The Location Discovery Protocol (paper §3.2–3.3).

Switches start with zero configuration and learn, purely from Location
Discovery Messages (LDMs) exchanged with neighbours:

* their **level** — a switch with wired-but-silent ports (hosts do not
  speak LDP) is an *edge* switch; a switch that hears an edge switch is
  *aggregation*; a switch that hears aggregation switches on every port
  is *core*;
* their **position** within the pod — edge switches propose a random
  unused position and their aggregation switches arbitrate uniqueness;
* their **pod** — one edge per pod (the lowest committed position;
  requests are staggered by position so position 0 wins when present)
  asks the fabric manager for a fresh pod number, and the value spreads
  through LDMs (aggregation adopts it from edges below; other edges
  adopt it from aggregation above);
* per-port **direction** (up/down) and the identity of each neighbour.

LDMs double as liveness probes: ``miss_threshold`` consecutive silent
periods on a port that used to have a neighbour declares the link dead —
this is the failure detector whose latency dominates Fig. 10.

On a settled fabric almost every LDM is a pure keepalive: it crosses a
healthy idle link to a located switch whose only reaction is to refresh
one timestamp. Such a port's link direction *streams* its LDMs
(:meth:`repro.net.link.Link.open_stream`): each beacon is logged once
for all of them, and counters, wire occupancy and the neighbour's
``last_heard`` are written in, exactly as the frames would have left
them, only by :meth:`~repro.net.link.Link.settle` — which every read
of them goes through. Subscribing to the ``keepalive.ldm`` trace
category turns every LDM back into a frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.net.addresses import MacAddress
from repro.net.codec import decode_payload
from repro.net.ethernet import ETHERTYPE_LDP, EthernetFrame
from repro.net.link import BeaconLog, Link, Port
from repro.portland.config import PortlandConfig
from repro.portland.messages import (
    NO_POD,
    NO_POSITION,
    LocationDiscoveryMessage,
    PositionAck,
    PositionProposal,
    SwitchLevel,
    decode_ldp,
)
from repro.sim.process import PeriodicTask, Timer
from repro.switching.stp import bridge_mac_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.portland.switch import PortlandSwitch

#: Link-local destination for LDP frames.
LDP_MULTICAST = MacAddress.parse("01:80:c2:00:00:0e")

#: Hard cap on the position space (matches the 8-bit PMAC field).
MAX_POSITIONS = 256

#: The levels, bound once: reading one off the enum class runs its
#: metaclass's attribute hook, a cost on every LDM's path.
_UNKNOWN, _EDGE, _AGGREGATION, _CORE = SwitchLevel
#: Level whose LDMs a pod-less switch of the keyed level takes its pod
#: number from (aggregation adopts from edges below, edges from
#: aggregation above).
_POD_SOURCE = {_EDGE: _AGGREGATION, _AGGREGATION: _EDGE}
#: Level of a switch's uplink neighbours, keyed by its own level.
_UP_LEVEL = {_EDGE: _AGGREGATION, _AGGREGATION: _CORE}

_PINNED = float("inf")
#: :meth:`LdpProcess._far_end` of a far end that takes no stream.
_DEAF = (None, 0)

#: How long a wired-but-silent port must stay silent before an edge
#: switch concludes it faces a host, in LDM periods.
EDGE_DETECT_PERIODS = 3.0
#: How long an edge waits for position acks before retrying.
PROPOSAL_TIMEOUT_S = 0.030
#: Lifetime of a tentative (unconfirmed) position grant at an
#: aggregation switch.
GRANT_TTL_S = 0.200


def edge_detect_s(config: PortlandConfig) -> float:
    """The silence after which an edge adopts a wired port as a host
    port — also what a newly plugged host waits out before announcing."""
    return EDGE_DETECT_PERIODS * config.ldm_period_s


class LdpListener(Protocol):
    """Callbacks the owning agent implements."""

    def on_location_complete(self) -> None:
        """Level (and pod/position where applicable) are now known."""

    def on_neighbor_changed(self, port_index: int) -> None:
        """A neighbour appeared on ``port_index`` or its info changed."""

    def on_neighbor_lost(self, port_index: int, info: "NeighborInfo") -> None:
        """The neighbour on ``port_index`` is gone (timeout or carrier)."""

    def request_pod(self) -> None:
        """Ask the fabric manager for a pod number (position-0 edge)."""


class NeighborInfo:
    """What we currently know about the switch across one port."""

    __slots__ = ("port_index", "switch_id", "level", "pod", "position",
                 "_last_heard", "_heard_before", "_in_flight", "fed_by")

    def __init__(self, port_index: int, switch_id: int, now: float) -> None:
        self.port_index = port_index
        self.switch_id = switch_id
        self.level = _UNKNOWN
        self.pod: int | None = None
        self.position: int | None = None
        self._last_heard = now
        # The stamp before, and the LDM that set the stamp, while that
        # one is a streamed LDM (settled with ``last_heard``).
        self._heard_before = now
        self._in_flight: EthernetFrame | None = None
        #: The link streaming this neighbour's LDMs, while one does (the
        #: link sets and clears it: see :meth:`Link.open_stream`).
        self.fed_by: Link | None = None

    @property
    def last_heard(self) -> float:
        """When the latest LDM reached switch software — or, for a
        streamed one still in flight, will reach it: up to one flight
        time ahead of the clock (see :meth:`LdpProcess._open_stream`)."""
        if self.fed_by is not None:
            self.fed_by.settle()
        return self._last_heard

    def hear(self, heard_at: float, heard_before: float | None,
             frame: EthernetFrame) -> None:
        """The streamed LDM ``frame`` reaches switch software at
        ``heard_at``, the one before it at ``heard_before`` (``None``:
        the current stamp)."""
        if heard_before is None:
            heard_before = self._last_heard
        self._heard_before = heard_before
        self._last_heard = heard_at
        self._in_flight = frame

    def unhear(self) -> None:
        """The streamed LDM that set the stamp was lost on the wire."""
        self._last_heard = self._heard_before

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Neighbor port={self.port_index} id={self.switch_id:#x} "
                f"{self.level.name} pod={self.pod} pos={self.position}>")


class _Proposal:
    """An outstanding position proposal."""

    __slots__ = ("position", "deadline", "grants", "rejected")

    def __init__(self, position: int, deadline: float) -> None:
        self.position = position
        self.deadline = deadline
        self.grants: set[int] = set()
        self.rejected = False


class LdpProcess:
    """Runs LDP on one switch."""

    def __init__(self, switch: "PortlandSwitch", config: PortlandConfig,
                 listener: LdpListener) -> None:
        self.switch = switch
        self.sim = switch.sim
        self.config = config
        self.listener = listener
        self.switch_mac = bridge_mac_for(switch.name)
        self.switch_id = self.switch_mac.value

        self.level = _UNKNOWN
        self.pod: int | None = None
        self.position: int | None = None
        self.host_ports: set[int] = set()
        self.neighbors: dict[int, NeighborInfo] = {}

        self._seq = 0
        self._started_at = 0.0
        self._location_announced = False
        self._proposal: _Proposal | None = None
        self._rejected_positions: set[int] = set()
        self._position_range = 0  # grows on exhaustion
        self._pod_requested = False
        #: Aggregation role: position -> (edge_id, expires_at).
        self._grants: dict[int, tuple[int, float]] = {}
        self._rng = self.sim.random.stream(f"ldp/{switch.name}")

        self._pod_request_timer = Timer(self.sim, self._request_pod_now)
        self._beacon = PeriodicTask(self.sim, config.ldm_period_s, self._send_ldm,
                                    jitter=0.1, rng_name=f"ldm/{switch.name}")
        self._checker = PeriodicTask(self.sim, config.ldm_period_s / 2,
                                     self._check, jitter=0.1,
                                     rng_name=f"ldpchk/{switch.name}")
        self._timeout = config.miss_threshold * config.ldm_period_s
        self._log = BeaconLog(self.sim)
        #: Ports whose LDMs streamed at the last beacon; ports whose
        #: LDMs go one by one, in port order.
        self._streams: list[Port] = []
        self._singles: list[Port] = []
        #: The LDM fields and host-port count the live streams were
        #: opened under, and the port count the grouping saw.
        self._shape: tuple | None = None
        self._port_count = 0
        #: Link -> (LDP process, port index) across it, or ``_DEAF``
        #: when that end never takes a stream (see :meth:`_far_end`).
        self._far: dict[Link, tuple] = {}
        #: LDMs transmitted (control-overhead measurement).
        self.ldms_sent = 0
        #: LDP frames dropped as undecodable or not an LDP message.
        self.malformed_dropped = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> None:
        """Begin beaconing and liveness checking."""
        self._started_at = self.sim.now
        self._beacon.start(self._rng.uniform(0, self.config.ldm_period_s))
        self._checker.start()
        # A preseeded switch (see :meth:`preseed`) is located from the
        # first instant; for dynamically discovered switches this is a
        # no-op (location_complete is still False here).
        self._maybe_announce()

    @property
    def next_beacon_at(self) -> float | None:
        """When the next keepalive beacon goes out (None when stopped)."""
        return self._beacon.next_at

    def preseed(self, level: SwitchLevel, pod: int | None = None,
                position: int | None = None,
                host_ports: tuple[int, ...] = ()) -> None:
        """Statically assign this switch's location before :meth:`start`.

        Topology schemes whose coordinates are known at build time (a
        two-level leaf-spine fabric, Jellyfish's uniform ToR mesh —
        which LDP's three-level classifier cannot even express) install
        them here. Beaconing, neighbor discovery, and liveness detection
        all still run; only the classification/arbitration half of LDP
        is bypassed (``_classify`` returns immediately once ``level`` is
        set).
        """
        self.level = level
        self.pod = pod
        self.position = position
        self.host_ports = set(host_ports)

    @property
    def location_complete(self) -> bool:
        """Whether this switch fully knows where it is."""
        if self.level is _EDGE:
            return self.pod is not None and self.position is not None
        if self.level is _AGGREGATION:
            return self.pod is not None
        return self.level is _CORE

    def set_pod(self, pod: int) -> None:
        """Install a pod number (from the fabric manager's PodReply)."""
        if self.pod is None:
            self.pod = pod
            self._pod_request_timer.stop()
            self._maybe_announce()

    # ------------------------------------------------------------------
    # Port direction helpers

    def data_ports(self) -> list[Port]:
        """All wired data-plane ports (excludes the control port)."""
        control = self.switch.control_port
        return [p for p in self.switch.ports
                if p is not control and p.link is not None]

    def up_ports(self) -> list[int]:
        """Port indices facing the next level up (confirmed neighbours)."""
        return sorted(i for i, n in self.neighbors.items() if self.faces_up(n))

    def faces_up(self, info: NeighborInfo) -> bool:
        """Whether neighbour ``info`` is on the next level up."""
        return info.level is _UP_LEVEL.get(self.level)

    # ------------------------------------------------------------------
    # Beaconing

    def _send_ldm(self) -> None:
        """Beacon an LDM on every switch-facing port.

        Ports whose LDMs a live keepalive stream carries cost nothing
        each: the beacon is logged once for all of them (docs/PERF.md,
        "Keepalive floor"). The others are taken one by one, and each
        either opens a stream or sends its LDM as a frame. When the
        LDM's fields or the host ports change, every stream closes
        first; a ``keepalive.ldm`` subscriber keeps them closed and sees
        each LDM sent as a frame.
        """
        self._seq += 1
        message = LocationDiscoveryMessage(
            switch_id=self.switch_id,
            level=self.level,
            pod=self.pod if self.pod is not None else NO_POD,
            position=self.position if self.position is not None else NO_POSITION,
            seq=self._seq,
        )
        sim = self.sim
        log = self._log
        hosts = self.host_ports
        shape = (message.level, message.pod, message.position, len(hosts))
        observed = sim.trace.wants("keepalive.ldm")
        if observed or shape != self._shape:
            self._regroup(keep=False)
            self._shape = shape
        elif (log.live != len(self._streams)
              or len(self.switch.ports) != self._port_count):
            self._regroup(keep=True)  # one closed, or a port was added
        frame = EthernetFrame(LDP_MULTICAST, self.switch_mac, ETHERTYPE_LDP,
                              message)
        log.beacon(frame)
        self.ldms_sent += len(self._streams)
        singles = []
        for port in self._singles:
            if port.link is None:
                singles.append(port)  # may be wired later
            elif port.index not in hosts:  # never bother hosts once classified
                self.ldms_sent += 1
                if observed:
                    sim.trace.emit(sim.now, "keepalive.ldm", self.switch.name,
                                   port=port.index, seq=self._seq)
                if observed or not self._open_stream(port):
                    singles.append(port)
                    # Shared by every port: nothing rewrites an LDP
                    # frame, which a switch punts before any rewrite.
                    port.send(frame)
            log.mark(port.index)
        self._singles = singles

    def _regroup(self, keep: bool) -> None:
        """Take every port one by one again, except those that still
        stream if ``keep``; close the others."""
        streams = [port for port in self._streams
                   if port.link is not None and port.link.streaming(port)]
        if not keep:
            for port in streams:
                port.link.settle(close=True)
            streams = []
        self._streams = streams
        control = self.switch.control_port
        self._singles = [p for p in self.switch.ports
                         if p is not control and p not in streams]
        self._port_count = len(self.switch.ports)

    def _open_stream(self, port: Port) -> bool:
        """Whether ``port``'s LDMs are streamed from this beacon's on: a
        PortLand switch at the far end would only refresh a stamp
        (:meth:`_refreshed_by`), which could not expire before this LDM
        is in, and the link streams it (:meth:`Link.open_stream`).

        A streamed LDM's stamp runs ahead of the clock until the LDM is
        in. That is invisible to :meth:`_check` because the stamp it
        replaces cannot expire before then: beacons come less than two
        periods apart (jitter < 1), and two periods must fit in the far
        end's timeout.
        """
        link = port.link
        far = self._far.get(link)
        if far is None:
            far = self._far_end(link, port)
        ldp, index = far
        if ldp is None or ldp.level is _UNKNOWN:
            return False  # _refreshed_by would refuse: _classify has work
        log = self._log
        info = ldp._refreshed_by(log.frame.payload, index)
        if info is None:
            return False
        delay = ldp.switch.agent_delay_s
        heard_at = self.sim.now + (link.serialization_time(log.frame, port)
                                   + link.delay_s) + delay
        if (heard_at - info.last_heard > ldp._timeout
                or not link.open_stream(port, log, info, delay)):
            return False
        self._streams.append(port)
        return True

    def _far_end(self, link: Link, port: Port) -> tuple:
        """``(LDP process, port index)`` across ``link``, remembered; or
        ``_DEAF``, remembered too for a host or a switch whose stamp
        could expire before a streamed LDM is in (see
        :meth:`_open_stream`), and not for a switch without its agent."""
        peer = link.other_end(port)
        agent = getattr(peer.node, "agent", None)
        if agent is None and hasattr(peer.node, "agent"):
            return _DEAF
        far = self._far[link] = (
            _DEAF if agent is None
            or 2 * self.config.ldm_period_s > agent.ldp._timeout
            else (agent.ldp, peer.index))
        return far

    # ------------------------------------------------------------------
    # Receive path (called by the agent for every LDP frame)

    def on_frame(self, frame: EthernetFrame, in_port: Port) -> None:
        """Dispatch one received LDP-family frame."""
        link = in_port.link
        if link is None or (link.carrier_detect and link.failed):
            # Punted just before the PHY reported loss of signal: the
            # neighbour is already gone (on_carrier_down), and a frame
            # from a dead link must not bring it back.
            return
        message = decode_payload(frame.payload, decode_ldp)
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            self.malformed_dropped += 1  # undecodable, or not LDP at all
            return
        handler(self, message, in_port)

    def _refreshed_by(self, ldm: LocationDiscoveryMessage,
                      index: int) -> NeighborInfo | None:
        """The neighbour entry that ``ldm``, arriving on port ``index``,
        would refresh — ``None`` if processing it would do anything more
        than set ``last_heard`` (see the steps of :meth:`_on_ldm`)."""
        level = self.level
        if level is _UNKNOWN:
            return None  # _classify has work to do
        info = self.neighbors.get(index)
        if info is None or info.switch_id != ldm.switch_id:
            return None
        pod = None if ldm.pod == NO_POD else ldm.pod
        position = None if ldm.position == NO_POSITION else ldm.position
        if (info.level is not ldm.level or info.pod != pod
                or info.position != position):
            return None
        if (self.pod is None and pod is not None
                and _POD_SOURCE.get(level) is ldm.level):
            return None  # _adopt_pod would take the pod
        if (level is _AGGREGATION
                and ldm.level is _EDGE and position is not None
                and self._grants.get(position) != (ldm.switch_id, _PINNED)):
            return None  # the grant is not pinned yet
        return info

    def _on_ldm(self, ldm: LocationDiscoveryMessage, in_port: Port) -> None:
        index = in_port.index
        info = self._refreshed_by(ldm, index)
        if info is not None:
            info._last_heard = self.sim.now
            return
        info = self.neighbors.get(index)
        is_new = info is None or info.switch_id != ldm.switch_id
        if is_new:
            info = NeighborInfo(index, ldm.switch_id, self.sim.now)
            self.neighbors[index] = info
            # A port we thought faced a host turns out to face a switch.
            if index in self.host_ports:
                self.host_ports.discard(index)
                self._shape = None
        info._last_heard = self.sim.now
        changed = is_new
        pod = None if ldm.pod == NO_POD else ldm.pod
        position = None if ldm.position == NO_POSITION else ldm.position
        if (info.level, info.pod, info.position) != (ldm.level, pod, position):
            info.level = ldm.level
            info.pod = pod
            info.position = position
            changed = True

        self._adopt_pod(info)
        self._classify(info)
        # An aggregation switch pins a position grant when it sees the
        # edge actually beaconing with it.
        if (self.level is _AGGREGATION
                and ldm.level is _EDGE and position is not None):
            self._grants[position] = (ldm.switch_id, _PINNED)
        if changed:
            self.listener.on_neighbor_changed(index)

    def _adopt_pod(self, info: NeighborInfo) -> None:
        if (self.pod is not None or info.pod is None
                or _POD_SOURCE.get(self.level) is not info.level):
            return
        self.pod = info.pod
        if self.level is _EDGE:
            self._pod_request_timer.stop()
        self._maybe_announce()

    # ------------------------------------------------------------------
    # Level classification

    def _classify(self, info: NeighborInfo) -> None:
        """The level rules, after the LDM that updated ``info``. While the
        level is unknown no neighbour is an edge (the LDM that made one
        so settled the level), so only ``info`` can newly satisfy a rule:
        the aggregation rule as an edge, the core rule as aggregation;
        the edge rule needs only the edge-detection wait to be over."""
        if self.level is not _UNKNOWN:
            return
        if info.level is _EDGE:
            self.level = _AGGREGATION
            self._maybe_announce()
            return
        detected = self.sim.now - self._started_at >= edge_detect_s(self.config)
        if not detected and info.level is not _AGGREGATION:
            return  # no rule can fire: the port rules are not evaluated
        wired = {p.index for p in self.data_ports()}
        heard = set(self.neighbors)
        silent = wired - heard
        if silent and heard and detected:
            self.level = _EDGE
            self.host_ports = silent
            self._start_position_agreement()
            self._maybe_announce()
            return
        if wired and heard == wired and all(
                n.level is _AGGREGATION for n in self.neighbors.values()):
            self.level = _CORE
            self._maybe_announce()

    def _maybe_announce(self) -> None:
        if self._location_announced or not self.location_complete:
            return
        self._location_announced = True
        self.sim.trace.emit(self.sim.now, "ldp.located", self.switch.name,
                            level=self.level.name, pod=self.pod,
                            position=self.position)
        self.listener.on_location_complete()

    # ------------------------------------------------------------------
    # Position agreement (edge side)

    def _start_position_agreement(self) -> None:
        if self.position is not None or self._proposal is not None:
            return
        self._position_range = max(
            len([p for p in self.data_ports()
                 if p.index not in self.host_ports]), 1)
        self._propose()

    def _propose(self) -> None:
        candidates = [p for p in range(self._position_range)
                      if p not in self._rejected_positions]
        while not candidates and self._position_range < MAX_POSITIONS:
            self._position_range = min(self._position_range * 2, MAX_POSITIONS)
            candidates = [p for p in range(self._position_range)
                          if p not in self._rejected_positions]
        if not candidates:
            # Every position rejected: clear memory and start over (the
            # conflicting grants will have expired by now).
            self._rejected_positions.clear()
            candidates = list(range(self._position_range))
        position = self._rng.choice(candidates)
        self._proposal = _Proposal(position,
                                   self.sim.now + PROPOSAL_TIMEOUT_S)
        proposal = PositionProposal(self.switch_id, position)
        for index, info in self.neighbors.items():
            if info.level in (_AGGREGATION, _UNKNOWN):
                self.switch.ports[index].send(
                    EthernetFrame(LDP_MULTICAST, self.switch_mac,
                                  ETHERTYPE_LDP, proposal))

    def _on_ack(self, ack: PositionAck, in_port: Port) -> None:
        proposal = self._proposal
        if (proposal is None or self.position is not None
                or ack.position != proposal.position):
            return
        if not ack.granted:
            self._rejected_positions.add(ack.position)
            self._proposal = None
            self._propose()
            return
        proposal.grants.add(ack.switch_id)
        # Commit once every known upward neighbour has granted.
        upward = {n.switch_id for n in self.neighbors.values()
                  if n.level in (_AGGREGATION, _UNKNOWN)}
        if upward and upward <= proposal.grants:
            self._commit_position(proposal.position)

    def _commit_position(self, position: int) -> None:
        self.position = position
        self._proposal = None
        self.sim.trace.emit(self.sim.now, "ldp.position", self.switch.name,
                            position=position)
        # One edge per pod must obtain the pod number from the fabric
        # manager. In a full fat tree that is whoever got position 0;
        # on sparser trees position 0 may be vacant, so requests are
        # staggered by position — the lowest committed position fires
        # first and everyone else learns the pod through LDMs (which
        # cancels their pending request).
        if self.pod is None and not self._pod_requested:
            delay = position * 3 * self.config.ldm_period_s
            self._pod_request_timer.start(delay)
        self._maybe_announce()

    def _request_pod_now(self) -> None:
        if self.pod is not None or self._pod_requested:
            return
        self._pod_requested = True
        self.listener.request_pod()

    # ------------------------------------------------------------------
    # Position arbitration (aggregation side)

    def _on_proposal(self, proposal: PositionProposal, in_port: Port) -> None:
        if self.level is not _AGGREGATION:
            return
        granted = self._grant(proposal.position, proposal.switch_id)
        ack = PositionAck(self.switch_id, proposal.position, granted)
        in_port.send(EthernetFrame(LDP_MULTICAST, self.switch_mac,
                                   ETHERTYPE_LDP, ack))

    def _grant(self, position: int, edge_id: int) -> bool:
        current = self._grants.get(position)
        now = self.sim.now
        if current is not None:
            holder, expires = current
            if holder != edge_id and now < expires:
                return False
        self._grants[position] = (edge_id, now + GRANT_TTL_S)
        return True

    # ------------------------------------------------------------------
    # Liveness

    def _check(self) -> None:
        timeout = self._timeout
        now = self.sim.now
        # A streamed neighbour cannot have expired (_open_stream).
        lost = [info for info in self.neighbors.values()
                if info.fed_by is None and now - info._last_heard > timeout]
        for info in lost:
            self._lose_neighbor(info)
        proposal = self._proposal
        if (proposal is not None and self.position is None
                and now >= proposal.deadline):
            if proposal.grants:
                self._commit_position(proposal.position)
            else:
                self._proposal = None
                self._propose()

    def on_carrier_down(self, port: Port) -> None:
        """Immediate failure signal from the PHY (when links provide it)."""
        info = self.neighbors.get(port.index)
        if info is not None:
            if info.last_heard > self.sim.now:
                # A streamed LDM had crossed the link before it died and
                # is still on its way to us: from here on it is a real
                # packet-in, judged on arrival like any other.
                self.sim.schedule_at(info.last_heard, self.on_frame,
                                     info._in_flight, port)
            self._lose_neighbor(info)

    def _lose_neighbor(self, info: NeighborInfo) -> None:
        del self.neighbors[info.port_index]
        # Release any position grant pinned to that edge.
        grants = {pos: (holder, exp)
                  for pos, (holder, exp) in self._grants.items()
                  if holder != info.switch_id}
        if len(grants) != len(self._grants):
            # Streamed LDMs may have relied on a pinned one.
            for other in self.neighbors.values():
                if other.fed_by is not None:
                    other.fed_by.settle(close=True)
        self._grants = grants
        self.sim.trace.emit(self.sim.now, "ldp.neighbor_lost", self.switch.name,
                            port=info.port_index, neighbor=info.switch_id)
        self.listener.on_neighbor_lost(info.port_index, info)

    #: LDP message class → handler, for :meth:`on_frame`.
    _HANDLERS = {
        LocationDiscoveryMessage: _on_ldm,
        PositionProposal: _on_proposal,
        PositionAck: _on_ack,
    }
