"""VM live-migration orchestration (paper §3.7, Fig. 13).

PortLand's promise is that a VM keeps its IP — and its open transport
connections — across a migration to any other physical machine in the
data center. The network-side sequence:

1. The VM detaches from its old edge switch (stop-and-copy downtime).
2. It attaches at the new edge and announces itself with a gratuitous
   ARP; the new edge switch discovers it, allocates a *new* PMAC, and
   registers it with the fabric manager.
3. The fabric manager notices the IP was previously registered
   elsewhere, updates its mapping, and sends an ``Invalidate`` to the
   old edge switch.
4. The old edge installs a trap: packets still addressed to the stale
   PMAC are forwarded to the new PMAC and answered with a unicast
   gratuitous ARP so each stale sender repoints its cache.

This module moves the *cable* in the simulator; everything else is the
protocol machinery reacting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.host.host import Host
from repro.net.link import Link
from repro.portland.ldp import edge_detect_s
from repro.sim.simulator import Simulator
from repro.topology.builder import PortlandFabric


@dataclass
class MigrationEvents:
    """Timestamps of the migration milestones (for Fig.-13 analysis)."""

    started_at: float = -1.0
    attached_at: float = -1.0
    announced_at: float = -1.0


class VmMigration:
    """Orchestrates one VM migration inside a PortLand fabric."""

    def __init__(
        self,
        fabric: PortlandFabric,
        host_name: str,
        new_edge: str,
        new_port: int,
        downtime_s: float = 0.2,
    ) -> None:
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.host: Host = fabric.hosts[host_name]
        self.new_edge = new_edge
        self.new_port = new_port
        self.downtime_s = downtime_s
        self.events = MigrationEvents()
        self._validate()

    def _validate(self) -> None:
        switch = self.fabric.switches.get(self.new_edge)
        if switch is None:
            raise TopologyError(f"unknown edge switch {self.new_edge!r}")
        port = switch.port(self.new_port)
        if port.link is not None:
            raise TopologyError(
                f"{self.new_edge} port {self.new_port} is already wired")

    def start(self) -> None:
        """Begin the migration at the current simulated time."""
        self.events.started_at = self.sim.now
        old_link = self.host.nic.link
        if old_link is None:
            raise TopologyError(f"{self.host.name} is not attached anywhere")
        old_link.detach()
        self.sim.trace.emit(self.sim.now, "migration.detached", self.host.name,
                            downtime=self.downtime_s)
        self.sim.schedule(self.downtime_s, self._attach)

    def _attach(self) -> None:
        switch = self.fabric.switches[self.new_edge]
        Link(self.sim, self.host.nic, switch.port(self.new_port),
             carrier_detect=True)
        self.events.attached_at = self.sim.now
        self.fabric.links[(self.host.name, self.new_edge)] = self.host.nic.link
        self.sim.trace.emit(self.sim.now, "migration.attached", self.host.name,
                            edge=self.new_edge, port=self.new_port)
        # The new edge adopts the silent port after its grace period;
        # announce just after so the gratuitous ARP is seen as a new host.
        config = self.fabric.config
        self.sim.schedule(edge_detect_s(config) + 2 * config.ldm_period_s,
                          self._announce)

    def _announce(self) -> None:
        self.events.announced_at = self.sim.now
        self.host.gratuitous_arp()
        self.sim.trace.emit(self.sim.now, "migration.announced", self.host.name)
