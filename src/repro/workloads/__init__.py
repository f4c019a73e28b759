"""Workload generation: traffic matrices, failures, ARP storms."""

from repro.workloads.arp_workload import ArpStorm
from repro.workloads.failures import FailureInjector, pick_failures, switch_link_names
from repro.workloads.traffic import (
    UdpFlowSet,
    inter_pod_pairs,
    random_permutation_pairs,
    stride_pairs,
)

__all__ = [
    "ArpStorm",
    "FailureInjector",
    "UdpFlowSet",
    "inter_pod_pairs",
    "pick_failures",
    "random_permutation_pairs",
    "stride_pairs",
    "switch_link_names",
]

from repro.workloads.hybrid import HybridWorkload
from repro.workloads.shuffle import (
    FlowResult,
    FluidShuffleWorkload,
    ShuffleWorkload,
)

__all__ += ["FlowResult", "FluidShuffleWorkload", "HybridWorkload",
            "ShuffleWorkload"]

from repro.workloads.incast import IncastWorkload

__all__ += ["IncastWorkload"]

from repro.workloads.replay import (
    all_to_all_frames,
    compile_paths,
    compiled_signature,
    decision_signature,
    replay_compiled,
    replay_decisions,
)

__all__ += [
    "all_to_all_frames",
    "compile_paths",
    "compiled_signature",
    "decision_signature",
    "replay_compiled",
    "replay_decisions",
]
