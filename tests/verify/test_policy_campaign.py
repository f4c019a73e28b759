"""Policy invariants under the campaign driver and the static walker.

The polarity flip is the point: for an ACL-blocked pair every drop is
*justified* (never reported as a blackhole), while a delivery across an
installed ACL is its own violation class (``acl-leak``). The mutation
test proves the walker actually enforces the flip — with the edge entry
silently removed behind the FM's back, the campaign's oracle must
report the leak.
"""

from dataclasses import replace

import pytest

from repro.portland.config import PortlandConfig
from repro.portland.forwarding import acl_name
from repro.sim import Simulator
from repro.topology import LinkParams, build_portland_fabric
from repro.verify import InvariantOracle
from repro.verify.campaign import (
    LANES,
    CampaignConfig,
    run_campaign,
    run_scenario,
    scenario_seed_for,
)


def quick_config(**overrides) -> CampaignConfig:
    defaults = dict(scenarios=3, seed=11, steps=3, probe_pairs=2,
                    probe_rate_pps=100.0)
    defaults.update(overrides)
    return replace(LANES["policy"], **defaults)


def converged(sim, shards=0):
    config = PortlandConfig(fm_shards=shards)
    fabric = build_portland_fabric(
        sim, k=4, config=config,
        link_params=LinkParams(carrier_detect=True))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def test_policy_campaign_is_clean():
    report = run_campaign(quick_config())
    assert report.ok
    assert report.violation_count == 0
    installs = [step for result in report.results
                for step in result.steps if step.startswith("acl-install")]
    assert installs, "op mix never exercised acl-install"


def test_policy_campaign_with_churn_and_shards_is_clean():
    report = run_campaign(quick_config(
        churn=True,
        fabric=PortlandConfig(fm_shards=4, fm_batch_interval_s=0.02)))
    assert report.ok
    assert report.violation_count == 0


def test_policy_scenarios_are_deterministic():
    config = quick_config(scenarios=1)
    seed = scenario_seed_for(config, 0)
    first = run_scenario(seed, config)
    second = run_scenario(seed, config)
    assert first.steps == second.steps
    assert first.hops == second.hops


@pytest.mark.campaign
def test_policy_campaign_full_25_scenarios():
    """The `make verify-policy` acceptance lane, in-process: 25
    scenarios of faults, migrations, and ACL churn with zero
    unjustified drops and zero leaks."""
    report = run_campaign(LANES["policy"])
    assert report.ok, report.reproducers
    assert report.violation_count == 0


def test_acl_blocked_pair_drop_is_justified_not_blackhole():
    """With an ACL installed, the walker must treat the edge drop as
    policy, not as a blackhole."""
    sim = Simulator(seed=101)
    fabric = converged(sim)
    fm = fabric.fabric_manager
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]
    fm.install_acl(src.ip, dst.ip)
    sim.run(until=sim.now + 0.2)

    oracle = InvariantOracle(fabric)
    oracle.check_now()
    assert oracle.violations == [], oracle.violations[:3]
    oracle.close()


def test_acl_leak_is_reported():
    """Mutation: the rule says blocked, but the edge entry vanished
    (here: removed behind the FM's back). The walker must flag every
    delivery across the installed ACL as an acl-leak."""
    sim = Simulator(seed=102)
    fabric = converged(sim)
    fm = fabric.fabric_manager
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]
    rule = fm.install_acl(src.ip, dst.ip)
    sim.run(until=sim.now + 0.2)

    removed = 0
    for agent in fabric.agents.values():
        removed += agent.switch.table.remove_by_name(
            acl_name(rule.src_ip, rule.dst_ip))
    assert removed == 1

    oracle = InvariantOracle(fabric)
    oracle.check_now()
    kinds = {violation.kind for violation in oracle.violations}
    assert "acl-leak" in kinds, oracle.violations[:3]
    leaks = [v for v in oracle.violations if v.kind == "acl-leak"]
    assert leaks[0].detail["src"] == src.name
    assert leaks[0].detail["dst"] == dst.name
    oracle.close()


def test_sharded_acl_blocked_pair_is_justified():
    sim = Simulator(seed=103)
    fabric = converged(sim, shards=4)
    cluster = fabric.fabric_manager
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]
    cluster.install_acl(src.ip, dst.ip)
    sim.run(until=sim.now + 0.3)

    oracle = InvariantOracle(fabric)
    oracle.check_now()
    assert oracle.violations == [], oracle.violations[:3]
    oracle.close()
