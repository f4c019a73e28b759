"""PortLand reproduction: a scalable fault-tolerant layer-2 data center
network fabric (SIGCOMM 2009), on a from-scratch discrete-event simulator.

Quickstart::

    from repro import Simulator, build_portland_fabric

    sim = Simulator(seed=1)
    fabric = build_portland_fabric(sim, k=4)
    fabric.bring_up()   # zero-config discovery, then host registration
    # ...attach apps from repro.host.apps and sim.run(until=...)
"""

from repro.errors import (
    AddressError,
    CodecError,
    FabricManagerError,
    HostError,
    LinkError,
    ProtocolError,
    ReproError,
    SimulationError,
    SwitchError,
    TopologyError,
)
from repro.host import Host
from repro.net import IPv4Address, Link, MacAddress, ip, mac
from repro.portland import (
    FabricManager,
    Pmac,
    PortlandAgent,
    PortlandConfig,
    PortlandSwitch,
    SwitchLevel,
)
from repro.portland.migration import VmMigration
from repro.sim import Simulator
from repro.topology import LinkParams, build_fat_tree, build_portland_fabric
from repro.topology.baselines import build_l2_fabric, build_l3_fabric
from repro.topology.multirooted import build_multirooted_tree

__version__ = "1.0.0"

__all__ = [
    "AddressError",
    "CodecError",
    "FabricManager",
    "FabricManagerError",
    "Host",
    "HostError",
    "IPv4Address",
    "Link",
    "LinkError",
    "LinkParams",
    "MacAddress",
    "Pmac",
    "PortlandAgent",
    "PortlandConfig",
    "PortlandSwitch",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "Simulator",
    "SwitchError",
    "SwitchLevel",
    "TopologyError",
    "VmMigration",
    "build_fat_tree",
    "build_l2_fabric",
    "build_l3_fabric",
    "build_multirooted_tree",
    "build_portland_fabric",
    "ip",
    "mac",
]
