"""Fault campaigns over the fluid flow engine (flow-mode fabrics).

The frame-mode campaign checks every *hop* a probe frame takes; in flow
mode there are no probe frames — probes are fluid flows, and the oracle
instead checks every *resolved path* the engine pins a flow to
(``verify.flow`` records): loop-free, up*-down*-ordered, terminating at
a host-delivery entry. Faults make the engine re-resolve, so a campaign
exercises exactly the soundness question that matters for the fluid
abstraction: after any fail/recover/migrate sequence, do flows only
ever occupy valid paths (or stall honestly)?
"""

from dataclasses import replace

import pytest

from repro.verify.campaign import (
    LANES,
    CampaignConfig,
    run_campaign,
    run_scenario,
    scenario_seed_for,
)


def quick_config(**overrides) -> CampaignConfig:
    defaults = dict(scenarios=3, seed=11, steps=3, probe_pairs=2)
    defaults.update(overrides)
    return replace(LANES["flows"], **defaults)


def test_small_flow_mode_campaign_is_clean():
    report = run_campaign(quick_config())
    assert report.ok
    assert report.violation_count == 0
    # Flow-mode scenarios are judged on resolved paths, not frame hops.
    assert all(result.hops == 0 for result in report.results)
    assert all(result.flow_paths > 0 for result in report.results)
    # The fluid engine actually ran in every scenario.
    assert all(result.flow_stats["flows_started"] > 0
               for result in report.results)


def test_flow_mode_scenarios_are_deterministic():
    config = quick_config(scenarios=1)
    seed = scenario_seed_for(config, 0)
    first = run_scenario(seed, config)
    second = run_scenario(seed, config)
    assert first.steps == second.steps
    assert first.flow_paths == second.flow_paths
    assert first.flow_stats == second.flow_stats
    assert first.failed_links == second.failed_links


def test_faults_force_reresolution():
    # Across a few scenarios with faults, at least one fluid probe must
    # have re-resolved (path count above the initial one-per-probe),
    # otherwise the campaign is not exercising invalidation at all.
    report = run_campaign(quick_config(scenarios=3, steps=4))
    assert report.ok
    assert any(result.flow_paths > result.flow_stats["flows_started"]
               for result in report.results)


@pytest.mark.campaign
def test_full_flow_mode_campaign_25_scenarios():
    # The 'make verify-flows' workload as a test: excluded from tier-1
    # runs by the default '-m "not campaign"' addopts.
    report = run_campaign(LANES["flows"])
    assert report.ok, "\n".join(
        str(v) for result in report.results for v in result.violations)
    assert sum(result.flow_paths for result in report.results) > 25
