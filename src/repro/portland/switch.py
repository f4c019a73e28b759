"""The PortLand switch: a two-stage flow pipeline plus direct LDP path.

Stage 1 (*rewrite table*) performs the edge MAC rewriting the paper
installs as OpenFlow entries: AMAC→PMAC on ingress host ports (and the
new-host trap). Entries whose actions are purely header rewrites fall
through to stage 2 (*forwarding table*), which holds the PMAC
longest-prefix-match entries, multicast entries, ARP interception, and
the ECMP default-up route.

Stage 2's verdict is a :class:`~repro.switching.flow_table.Plan` —
matched entry, hash-resolved actions and, for a unicast verdict, the
egress port and destination rewrite — that the forwarding table
memoises itself (:meth:`FlowTable.decide`), so steady-state forwarding
costs one dict probe and one ``port.send`` per hop. A change of the
table is the one thing that retires a plan; a table that cannot memoise
compiles the same plan per frame, so the hop walker reads one kind of
verdict in every case.

LDP frames and control-network frames bypass the tables entirely — they
terminate in switch software, like protocol packets reaching a switch
CPU port. Anything punted there (via :class:`ToAgent`, LDP, the control
port) reaches the switch's agent after a software-path delay, like an
OpenFlow packet-in.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from repro.net.ethernet import ETHERTYPE_LDP, EthernetFrame
from repro.net.link import Port
from repro.net.node import Node
from repro.sim.simulator import Simulator
from repro.switching.flow_table import (
    Drop,
    FlowTable,
    Output,
    OutputMany,
    SelectByHash,
    SetEthDst,
    SetEthSrc,
    ToAgent,
    flow_hash,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.portland.agent import PortlandAgent


class PortlandSwitch(Node):
    """Data plane of a PortLand switch (any level)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_ports: int,
        agent_delay_s: float = 50e-6,
    ) -> None:
        super().__init__(sim, name, num_ports)
        #: Stage 1 (edge MAC rewriting) and stage 2 (forwarding).
        self.rewrite_table = FlowTable()
        self.table = FlowTable()
        self.agent: PortlandAgent | None = None
        #: Software (packet-in) path latency.
        self.agent_delay_s = agent_delay_s
        #: Frames dropped on a table miss (or punted with no agent).
        self.miss_drops = 0
        #: Optional tap invoked for every frame entering the tables
        #: (testing hook).
        self.rx_tap: Callable[[EthernetFrame, Port], None] | None = None
        self.control_port: Port | None = None

    def attach_control_port(self) -> Port:
        """Add the out-of-band port that connects to the fabric manager."""
        self.control_port = self.add_port()
        return self.control_port

    # ------------------------------------------------------------------
    # Pipeline

    def receive(self, frame: EthernetFrame, in_port: Port) -> None:
        if in_port is self.control_port:
            # Control-network delivery goes straight to the agent.
            self.punt_to_agent(frame, in_port, "control")
            return
        if frame.ethertype == ETHERTYPE_LDP:
            self.punt_to_agent(frame, in_port, "ldp")
            return
        if self.rx_tap is not None:
            self.rx_tap(frame, in_port)

        in_index = in_port.index
        # Rewrites keep a frame's length: one size serves both stages.
        size = frame._wire_len
        if size is None:
            size = frame.wire_length()
        current = frame
        rewrite_table = self.rewrite_table
        # Rewrite entries name their ingress port: from a port with none
        # (every uplink, every port of a switch above the edge) the
        # stage is skipped without a lookup; an unknown port looks up.
        if rewrite_table.by_ingress.get(in_index, True):
            rewrite = rewrite_table.lookup(current, in_index)
            if rewrite is not None:
                rewrite.packets += 1
                rewrite.bytes += size
                current = self.apply_actions(current, in_port,
                                             rewrite.actions)
                if current is None:  # the entry did more than rewrite headers
                    return

        plan = self.table.decide(current, in_index, self.ports)
        if plan is None:
            self._miss(current, in_index)
            return
        trace = self.sim.trace
        entry, actions, port, set_dst = plan
        entry.packets += 1
        entry.bytes += size
        if trace.hop_wanted:
            trace.emit(self.sim.now, "verify.hop", self.name,
                       payload=current.payload, dst=current.dst.value,
                       ethertype=current.ethertype, entry=entry.name,
                       in_port=in_index)
        if port is None:
            self.apply_actions(current, in_port, actions)
        elif port.index != in_index:  # never reflect out of the ingress
            if set_dst is not None:
                current = current.copy()
                current.dst = set_dst
            port.send(current)

    def apply_actions(self, frame: EthernetFrame, in_port: Port,
                      actions) -> EthernetFrame | None:
        """Execute an action list on a frame (the interpreter every
        verdict without a pre-bound port runs).

        Returns the frame as rewritten if the list only rewrote headers
        (what the rewrite stage carries on to the forwarding table), and
        ``None`` once an action has sent, punted or dropped it.
        """
        current = frame
        consumed = False
        for action in actions:
            if isinstance(action, SetEthDst):
                current = current.copy()
                current.dst = action.mac
                continue
            if isinstance(action, SetEthSrc):
                current = current.copy()
                current.src = action.mac
                continue
            consumed = True
            if isinstance(action, Output):
                self.send_out(action.port, current, in_port)
            elif isinstance(action, OutputMany):
                for port_index in action.ports:
                    if port_index != in_port.index:
                        self.send_out(port_index, current.copy(), in_port)
            elif isinstance(action, SelectByHash):
                # Deliberately blind to link health: the installed group
                # is the control plane's current belief, so packets keep
                # flowing into a silently failed link until LDP (or
                # carrier detection) updates the entry — exactly the
                # window the convergence experiments measure.
                if action.ports:
                    self.send_out(
                        action.ports[flow_hash(current) % len(action.ports)],
                        current, in_port)
            elif isinstance(action, ToAgent):
                self.punt_to_agent(current, in_port, action.reason)
            elif isinstance(action, Drop):
                # Deliberate (policy) discard — recorded so campaigns can
                # prove every ACL drop is justified and nothing else is.
                if self.sim.trace.wants("verify.policy_drop"):
                    self.sim.trace.emit(
                        self.sim.now, "verify.policy_drop", self.name,
                        in_port=in_port.index, reason=action.reason,
                        src=current.src.value, dst=current.dst.value,
                        ethertype=current.ethertype, payload=current.payload,
                    )
                break
        return None if consumed else current

    def send_out(self, port_index: int, frame: EthernetFrame,
                 in_port: Port) -> None:
        """Transmit on one port (never reflects back out the ingress)."""
        if port_index == in_port.index:
            return
        if 0 <= port_index < len(self.ports):
            self.ports[port_index].send(frame)

    def _miss(self, frame: EthernetFrame, in_index: int, **detail) -> None:
        """No entry matched: the frame is dropped, and counted."""
        self.miss_drops += 1
        if self.sim.trace.wants("verify.miss"):
            self.sim.trace.emit(self.sim.now, "verify.miss", self.name,
                                payload=frame.payload, dst=frame.dst.value,
                                ethertype=frame.ethertype, in_port=in_index,
                                **detail)

    def inject(self, frame: EthernetFrame, from_port_index: int = -1) -> None:
        """Run a software-generated frame through the forwarding table
        only (used by the agent to source frames into the fabric).

        Punt entries are skipped: the agent has already processed this
        frame, so re-punting it would loop or blackhole.
        """
        entry = self.table.lookup(frame, from_port_index, skip_punts=True)
        if entry is None:
            self._miss(frame, from_port_index, injected=True)
            return
        entry.touch(frame)
        if self.sim.trace.hop_wanted:
            self.sim.trace.emit(self.sim.now, "verify.hop", self.name,
                                payload=frame.payload, dst=frame.dst.value,
                                ethertype=frame.ethertype, entry=entry.name,
                                in_port=from_port_index, injected=True)
        # A fake ingress that can never equal a real port index, so
        # OutputMany/flood exclusion works naturally.
        self.apply_actions(frame, SimpleNamespace(index=from_port_index),
                           entry.actions)

    def send_control(self, frame: EthernetFrame) -> bool:
        """Transmit on the control port."""
        if self.control_port is None:
            return False
        return self.control_port.send(frame)

    # ------------------------------------------------------------------
    # Software path

    def punt_to_agent(self, frame: EthernetFrame, in_port: Port,
                      reason: str) -> None:
        """Deliver a frame to the agent after the software-path delay."""
        if self.agent is None:
            self.miss_drops += 1
            return
        self.sim.schedule(self.agent_delay_s, self.agent.on_packet_in,
                          frame, in_port, reason)

    def on_port_down(self, port: Port) -> None:
        if self.agent is not None:
            self.agent.on_port_down(port)

    def on_port_up(self, port: Port) -> None:
        if self.agent is not None:
            self.agent.on_port_up(port)

    def attach_agent(self, agent: PortlandAgent) -> None:
        """Install the software agent (does not start it)."""
        self.agent = agent
