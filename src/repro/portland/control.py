"""The out-of-band control network: switch ⇄ fabric-manager links.

The paper runs OpenFlow over a separate control network; we model it as
a star of dedicated point-to-point links from every switch's control
port to the fabric manager, with explicit rate and latency, so control
round-trips (ARP resolution, fault notification) cost real simulated
time and control load is measurable in wire bytes.
"""

from __future__ import annotations

from repro.net.link import Link
from repro.portland.agent import PortlandAgent
from repro.portland.fabric_manager import FabricManager
from repro.sim.simulator import Simulator

#: Control-network link rate and propagation delay (switch <-> fabric
#: manager).
CONTROL_RATE_BPS = 1_000_000_000.0
CONTROL_DELAY_S = 20e-6


class ControlNetwork:
    """Wires agents to one fabric manager."""

    def __init__(self, sim: Simulator, fabric_manager: FabricManager) -> None:
        self.sim = sim
        self.fabric_manager = fabric_manager
        self.links: list[Link] = []
        #: switch id -> its control link (campaigns partition per switch).
        self.links_by_switch: dict[int, Link] = {}

    def connect(self, agent: PortlandAgent) -> Link:
        """Create the control link for one switch agent."""
        switch_port = agent.switch.attach_control_port()
        fm_port = self.fabric_manager.attach_switch(agent.switch_id,
                                                    name=agent.switch.name)
        link = Link(
            self.sim,
            switch_port,
            fm_port,
            rate_bps=CONTROL_RATE_BPS,
            delay_s=CONTROL_DELAY_S,
            name=f"ctl:{agent.switch.name}",
        )
        agent.fm_mac = self.fabric_manager.mac_for(agent.switch_id)
        self.links.append(link)
        self.links_by_switch[agent.switch_id] = link
        return link
