"""Fabric invariant verification (``repro.verify``).

An *independent oracle* for the properties PortLand claims by
construction (paper §3.5–3.6): loop-freedom, no blackholes, PMAC
uniqueness/consistency, and soundness of the prescriptive fault
overrides. Independence means none of these checks reuse
:func:`repro.portland.faults.compute_overrides` or trust the control
plane's own bookkeeping — reachability comes from a from-scratch
up*-down* search over the alive wiring, and forwarding behaviour is
read out of the switches' *installed* flow tables.

Three layers:

* :mod:`repro.verify.invariants` + :mod:`repro.verify.walk` —
  post-hoc checks over a settled fabric (pure functions returning
  :class:`Violation` lists);
* :mod:`repro.verify.oracle` — :class:`InvariantOracle`, a runtime
  subscriber on the simulator's :class:`~repro.sim.trace.TraceBus` that
  watches every forwarded frame for switch revisits and up-after-down
  violations, plus a ``check_now()`` entry point for the static checks;
* :mod:`repro.verify.campaign` — seeded property-based fault campaigns
  (random failures, recoveries, VM migrations) with automatic shrinking
  of failing scenarios to a minimal link set, run in the named
  configurations of :data:`~repro.verify.campaign.LANES`.

See ``docs/VERIFY.md`` for the invariants and the independence argument.
"""

from repro.verify.campaign import (
    LANES,
    CampaignConfig,
    CampaignReport,
    Reproducer,
    ScenarioResult,
    run_campaign,
    run_scenario,
    shrink_failure_links,
    static_violations_for_links,
)
from repro.verify.invariants import (
    Violation,
    check_fault_state,
    check_override_soundness,
    check_pmac_consistency,
)
from repro.verify.oracle import InvariantOracle
from repro.verify.reachability import (
    deliverable_via_agg,
    deliverable_via_core,
    edge_reachable,
    reachable_edge_set,
)
from repro.verify.walk import check_all_pairs_delivery, walk_unicast

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "InvariantOracle",
    "LANES",
    "Reproducer",
    "ScenarioResult",
    "Violation",
    "check_all_pairs_delivery",
    "check_fault_state",
    "check_override_soundness",
    "check_pmac_consistency",
    "deliverable_via_agg",
    "deliverable_via_core",
    "edge_reachable",
    "reachable_edge_set",
    "run_campaign",
    "run_scenario",
    "shrink_failure_links",
    "static_violations_for_links",
    "walk_unicast",
]
