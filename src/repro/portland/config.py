"""Tunable parameters of the PortLand control plane.

Defaults follow the paper's testbed behaviour: LDMs double as liveness
probes with a detection time of ``ldm_period_s * miss_threshold`` ≈
50 ms, which (plus reporting and re-installation) lands single-failure
convergence in the paper's 60–80 ms band.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PortlandConfig:
    """All knobs for LDP, the agents, and the fabric manager."""

    #: LDM beacon period.
    ldm_period_s: float = 0.010
    #: Consecutive missed LDMs before a neighbour is declared dead.
    miss_threshold: int = 5

    #: Switch software (packet-in) path latency.
    agent_delay_s: float = 50e-6
    #: Flow-level (fluid) simulation mode: the builder attaches a
    #: :class:`repro.flows.FlowEngine` to the fabric, which advances
    #: flows as max-min fair *rates* over compiled hop lists instead of
    #: per-frame events (see ``docs/FLOWS.md``). The builder gives such a
    #: fabric a :class:`~repro.switching.path_cache.PathCache`, which
    #: resolves each flow's hop list and retires it when a table or link
    #: its walk read changes.
    #: ``"hybrid"`` additionally couples the two executors through shared
    #: ``Link`` capacity: fluid allocations slow frame serialization on
    #: the links they cross, and measured frame load (epoch EWMA) shrinks
    #: the capacity the fluid water-filling distributes — one run can
    #: carry 10k+ background fluid flows under frame-level foreground
    #: flows of interest.
    flow_mode: bool | str = False

    #: Fabric-manager per-message service time (one CPU core).
    fm_service_time_s: float = 25e-6
    #: Number of fabric-manager shards (0 or 1 = the classic single FM).
    #: With N > 1 the builder wires an :class:`~repro.portland.fm_shard.
    #: FmShardCluster`: per-pod shards own slices of the IP→PMAC registry
    #: and the switch control links, a policy coordinator owns the
    #: topology view / fault matrix / override push, and each server is
    #: its own single-server queue with its own ``fm_service_time_s``
    #: accounting (see docs/PROTOCOLS.md).
    fm_shards: int = 0
    #: Override-push batching window. 0 (default) pushes FaultUpdate /
    #: FaultClear immediately on every view change, exactly as before;
    #: > 0 coalesces all changes arriving within the window into one
    #: recompute + one diff per convergence round, so a switch sees at
    #: most one update per prefix per round instead of one per event.
    fm_batch_interval_s: float = 0.0
    #: Period of the agents' soft-state refresh (neighbor report, host
    #: re-registration, multicast membership, outstanding failures) —
    #: what lets a restarted fabric manager rebuild all of its state.
    soft_state_refresh_s: float = 2.0
