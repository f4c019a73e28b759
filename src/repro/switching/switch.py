"""The switch chassis: a flow-table pipeline plus a software agent hook.

Mirrors the paper's hardware/software split: the *pipeline* applies flow
entries at line rate; anything punted via :class:`ToAgent` (or a table
miss, when so configured) reaches the :class:`SwitchAgent` after a small
software-path delay, like an OpenFlow packet-in.
"""

from __future__ import annotations

from typing import Callable

from repro.net.ethernet import EthernetFrame
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

#: Software (packet-in) path latency. OpenFlow-era switch CPUs took on
#: the order of a few hundred microseconds to punt and process a frame.
DEFAULT_AGENT_DELAY_S = 200e-6


class SwitchAgent:
    """Base class for switch-local control software.

    Subclasses (the PortLand agent, the learning-switch logic, STP, the
    L3 control plane) override the hooks they need.
    """

    def __init__(self, switch: "FlowSwitch") -> None:
        self.switch = switch
        self.sim = switch.sim

    def on_packet_in(self, frame: EthernetFrame, in_port: Port, reason: str) -> None:
        """A frame was punted to software. Default: drop."""

    def on_port_down(self, port: Port) -> None:
        """Carrier lost on a port."""

    def on_port_up(self, port: Port) -> None:
        """Carrier restored on a port."""

    def start(self) -> None:
        """Begin periodic protocol activity (beacons, hellos)."""


class FlowSwitch(Node):
    """A switch whose forwarding behaviour is its flow table."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        num_ports: int,
        agent_delay_s: float = DEFAULT_AGENT_DELAY_S,
        miss_to_agent: bool = False,
    ) -> None:
        super().__init__(sim, name, num_ports)
        self.table = FlowTable()
        self.agent: SwitchAgent | None = None
        self.agent_delay_s = agent_delay_s
        #: On table miss: punt to agent (True) or drop (False).
        self.miss_to_agent = miss_to_agent
        #: Frames dropped due to table miss.
        self.miss_drops = 0
        #: Optional tap invoked for every received frame (testing hook).
        self.rx_tap: Callable[[EthernetFrame, Port], None] | None = None

    # ------------------------------------------------------------------
    # Data path

    def receive(self, frame: EthernetFrame, in_port: Port) -> None:
        """Pipeline entry point."""
        if self.rx_tap is not None:
            self.rx_tap(frame, in_port)
        entry = self.table.lookup(frame, in_port.index)
        if entry is None:
            if self.miss_to_agent:
                self.punt_to_agent(frame, in_port, "table-miss")
            else:
                self.miss_drops += 1
                if self.sim.trace.wants("switch.miss"):
                    self.sim.trace.emit(self.sim.now, "switch.miss", self.name,
                                        frame=repr(frame), in_port=in_port.index)
            return
        entry.touch(frame)
        self.apply_actions(frame, in_port, entry.actions)

    def apply_actions(self, frame: EthernetFrame, in_port: Port,
                      actions) -> EthernetFrame | None:
        """Execute an action list on a frame.

        Returns the frame as rewritten if the list only rewrote headers
        (what a multi-stage pipeline carries on to its next table), and
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
                chosen = self.select_ecmp(current, action.ports)
                if chosen is not None:
                    self.send_out(chosen, current, in_port)
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

    def select_ecmp(self, frame: EthernetFrame, ports: tuple[int, ...]) -> int | None:
        """Hash-select a port from an ECMP group.

        Deliberately does *not* check link health: the installed group is
        the control plane's current belief, so packets keep flowing into a
        silently failed link until LDP (or carrier detection) updates the
        entry — exactly the window the convergence experiments measure.
        """
        if not ports:
            return None
        return ports[flow_hash(frame) % len(ports)]

    def send_out(self, port_index: int, frame: EthernetFrame, in_port: Port) -> None:
        """Transmit on one port (never reflects back out the ingress)."""
        if port_index == in_port.index:
            return
        if 0 <= port_index < len(self.ports):
            self.ports[port_index].send(frame)

    def flood(self, frame: EthernetFrame, in_port: Port,
              allowed: set[int] | None = None) -> None:
        """Send out every up port except the ingress (optionally limited
        to an ``allowed`` port set, e.g. STP forwarding ports)."""
        for port in self.ports:
            if port.index == in_port.index or not port.is_up:
                continue
            if allowed is not None and port.index not in allowed:
                continue
            port.send(frame.copy())

    # ------------------------------------------------------------------
    # Software path

    def punt_to_agent(self, frame: EthernetFrame, in_port: Port, reason: str) -> None:
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

    def attach_agent(self, agent: SwitchAgent) -> None:
        """Install the software agent (does not start it)."""
        self.agent = agent
