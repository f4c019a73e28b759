"""Switch substrate: flow tables and their verdict memo, the hop
walk, the flow engine's path cache, and the baseline designs."""

from repro.switching.flow_table import (
    Action,
    FlowEntry,
    FlowTable,
    Match,
    Output,
    OutputMany,
    SelectByHash,
    SetEthDst,
    SetEthSrc,
    ToAgent,
    flow_hash,
    mac_prefix_mask,
)
from repro.switching.l3router import L3Router, Subnet
from repro.switching.path_cache import CompiledPath, PathCache
from repro.switching.learning import LearningSwitch
from repro.switching.linkstate import LinkStateDatabase, Lsa, shortest_paths
from repro.switching.stp import Bpdu, BridgeId, PortState, StpProcess

__all__ = [
    "Action",
    "Bpdu",
    "BridgeId",
    "CompiledPath",
    "FlowEntry",
    "FlowTable",
    "L3Router",
    "LearningSwitch",
    "LinkStateDatabase",
    "Lsa",
    "Match",
    "Output",
    "OutputMany",
    "PathCache",
    "PortState",
    "SelectByHash",
    "SetEthDst",
    "SetEthSrc",
    "StpProcess",
    "Subnet",
    "ToAgent",
    "flow_hash",
    "mac_prefix_mask",
    "shortest_paths",
]
