"""Campaign driver tests, including the mutation smoke test.

The mutation test is the acceptance check for the whole subsystem: with
a deliberately broken fault handler (aggregation overrides skipped), the
oracle must catch the resulting blackhole and shrink the failure set to
the single causal link. With the real implementation, campaigns must
come back clean.
"""

from dataclasses import replace

import pytest

import repro.portland.faults as faults
from repro.net.codec import decode_payload
from repro.net.link import Link, Port
from repro.portland.agent import PortlandAgent
from repro.portland.config import PortlandConfig
from repro.portland.fm_shard import FmShardCluster
from repro.portland.ldp import LdpProcess
from repro.portland.messages import FaultUpdate, LinkRecover, decode_ldp
from repro.sim.simulator import Simulator
from repro.verify.campaign import (
    LANES,
    OPS,
    CampaignConfig,
    Reproducer,
    run_campaign,
    run_scenario,
    scenario_seed_for,
    shrink_failure_links,
    static_violations_for_links,
)
from tests.net import test_link as link_tests
from tests.net.test_accounted_frames import _keepalive_across_a_port_toggle
from tests.portland.test_ldp import (
    test_ldm_in_software_path_cannot_resurrect_a_carrier_lost_neighbor,
)
from tests.topology import test_jellyfish_expand_live as expand_live
from tests.verify import test_keepalive_equivalence as keepalive_tests


def quick_config(**overrides) -> CampaignConfig:
    defaults = dict(scenarios=3, seed=11, steps=3, probe_pairs=2,
                    probe_rate_pps=100.0)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def test_small_campaign_is_clean():
    report = run_campaign(quick_config())
    assert report.ok
    assert report.violation_count == 0
    assert report.reproducers == []
    assert len(report.results) == 3
    assert all(result.hops > 0 for result in report.results)


def test_scenarios_are_deterministic():
    config = quick_config(scenarios=1)
    seed = scenario_seed_for(config, 0)
    first = run_scenario(seed, config)
    second = run_scenario(seed, config)
    assert first.steps == second.steps
    assert first.hops == second.hops
    assert first.failed_links == second.failed_links


def test_static_check_clean_with_real_implementation():
    links = [("agg-p0-s0", "core-0"), ("edge-p1-s0", "agg-p1-s1")]
    assert static_violations_for_links(4, links) == []


def test_mutation_agg_overrides_skipped_is_caught(monkeypatch):
    # Break the FM: aggregation switches in remote pods never learn to
    # avoid a core that lost its link into the destination pod. Their
    # ECMP set still contains the dead core, whose own pod entry was
    # removed -> table miss -> blackhole the walker must attribute.
    monkeypatch.setattr(faults, "_agg_overrides", lambda *a, **k: None)
    links = [("agg-p0-s0", "core-0"), ("edge-p1-s0", "agg-p1-s1")]
    violations = static_violations_for_links(4, links)
    assert violations, "mutation survived: broken overrides went undetected"
    assert {v.kind for v in violations} == {"blackhole"}
    minimal = shrink_failure_links(4, links)
    assert minimal == [("agg-p0-s0", "core-0")]


def test_mutation_caught_by_campaign_with_reproducer(monkeypatch):
    monkeypatch.setattr(faults, "_agg_overrides", lambda *a, **k: None)
    # Enough scenarios/steps that some scenario fails an agg-core link.
    report = run_campaign(quick_config(
        scenarios=4, steps=4, ops=("fail", "fail", "fail-switch", "recover")))
    assert not report.ok
    assert report.reproducers
    reproducer = report.reproducers[0]
    assert isinstance(reproducer, Reproducer)
    assert "blackhole" in reproducer.kinds
    assert "seed=" in str(reproducer)
    if reproducer.static:
        # A shrunk reproducer must itself reproduce.
        assert static_violations_for_links(reproducer.k, reproducer.links)


def test_shrinker_uses_the_lane_fabric(monkeypatch):
    # Break the sharded FM: its cluster never relays an override push to
    # the switch. The blackhole exists only on a sharded fabric, so the
    # re-check and the shrinking must build the scenario's own fabric.
    relay = FmShardCluster.relay

    def relay_all_but_overrides(self, sender, switch_id, message):
        if not isinstance(message, FaultUpdate):
            relay(self, sender, switch_id, message)

    monkeypatch.setattr(FmShardCluster, "relay", relay_all_but_overrides)
    config = CampaignConfig(scenarios=1, seed=11, steps=4, probe_pairs=2,
                            probe_rate_pps=100.0,
                            ops=("fail", "fail", "fail-switch", "recover"),
                            fabric=PortlandConfig(fm_shards=4))
    report = run_campaign(config)
    assert not report.ok
    reproducer = report.reproducers[0]
    assert reproducer.static, str(reproducer)
    assert static_violations_for_links(reproducer.k, reproducer.links, config,
                                       topo_seed=reproducer.scenario_seed)


def _enabled_without_redeliver(port, enabled):
    """``Port.enabled``'s setter with the fix of the disabled-port bug
    reverted: the link's streams close, but a keepalive streamed toward
    the port is not handed back as a frame for its arrival to judge."""
    if port.link is not None:
        port.link.settle(close=True)
    port._enabled = enabled


@pytest.mark.campaign
def test_mutation_keepalive_booked_at_a_disabled_port_is_caught(monkeypatch):
    monkeypatch.setattr(Port, "enabled", property(Port.enabled.fget,
                                                  _enabled_without_redeliver))
    # The unit test's schedule: the far port disabled under the wire.
    assert (_keepalive_across_a_port_toggle(True, 1, 1.0e-6, False)[:3]
            != _keepalive_across_a_port_toggle(False, 1, 1.0e-6, False)[:3])
    # No other lane toggles a port; this one catches it.
    report = run_campaign(LANES["ports"])
    assert not report.ok
    assert {v.kind for result in report.results
            for v in result.violations} == {"disabled-rx"}
    assert all("port-toggle" in result.steps[-1]
               for result in report.results if not result.ok)


def _recover_naming_the_new_neighbour(self, port_index):
    """``PortlandAgent.on_neighbor_changed`` with the fix of the stale
    fault bug reverted: the recovery names whoever answers on the port
    now, not the peer whose failure the agent reported."""
    failed_peer = self._reported_failed.pop(port_index, None)
    if failed_peer is not None:
        self.send_to_fm(LinkRecover(
            self.switch_id, port_index,
            self.ldp.neighbors[port_index].switch_id))
    self._refresh_entries(port_index)
    self._schedule_report()


@pytest.mark.campaign
def test_mutation_recovery_naming_the_new_neighbour_is_caught(monkeypatch):
    monkeypatch.setattr(PortlandAgent, "on_neighbor_changed",
                        _recover_naming_the_new_neighbour)
    # The unit test's live splice leaves the fault matrix stale.
    with pytest.raises(AssertionError):
        expand_live.test_live_expansion_leaves_no_stale_fault()
    # No other lane splices a switch in; this one catches it.
    report = run_campaign(LANES["expand"])
    assert not report.ok
    assert {v.kind for result in report.results
            for v in result.violations} == {"stale-fault"}
    assert all(result.steps[-1].startswith("expand +")
               for result in report.results if not result.ok)


def _on_frame_from_any_link(self, frame, in_port):
    """``LdpProcess.on_frame`` with the fix of the ghost-neighbour bug
    reverted: a frame punted just before carrier loss, or from an
    unwired port, is processed as if its link were alive."""
    message = decode_payload(frame.payload, decode_ldp)
    handler = self._HANDLERS.get(type(message))
    if handler is None:
        self.malformed_dropped += 1
        return
    handler(self, message, in_port)


@pytest.mark.campaign
def test_mutation_ldm_from_a_dead_link_is_caught(monkeypatch):
    monkeypatch.setattr(LdpProcess, "on_frame", _on_frame_from_any_link)
    # The unit test's cut under an LDM's packet-in brings it back.
    with pytest.raises(AssertionError):
        test_ldm_in_software_path_cannot_resurrect_a_carrier_lost_neighbor()
    # No other lane cuts a link inside that 50 us window; this one does.
    report = run_campaign(LANES["ldm-cuts"])
    assert not report.ok
    assert {v.kind for result in report.results
            for v in result.violations} == {"ghost-neighbor"}
    assert all(result.steps[-1].startswith("ldm-cut")
               for result in report.results if not result.ok)


_transmission_done = Link._transmission_done


def _transmission_done_after_any_cut(self, src_port, direction, cuts):
    """``Link._transmission_done`` with the fix of the stale
    end-of-serialization bug reverted: an end whose frame died in a cut
    still starts the next waiting frame, over whatever holds the wire."""
    _transmission_done(self, src_port, direction, direction.cuts)


@pytest.mark.campaign
def test_mutation_stale_end_of_serialization_is_caught(monkeypatch):
    monkeypatch.setattr(Link, "_transmission_done",
                        _transmission_done_after_any_cut)
    # The unit test's schedule: a frame clocked out over another.
    with pytest.raises(AssertionError):
        link_tests.test_a_cut_voids_the_end_of_serialization_a_frame_waited_for(
            False)
    # No other lane cuts a link while a frame waits; this one does.
    report = run_campaign(LANES["flaps"])
    assert not report.ok
    assert {v.kind for result in report.results
            for v in result.violations} == {"overlap"}
    assert all(result.steps[-1].startswith("flap")
               for result in report.results if not result.ok)


_deliver = Link._deliver


def _deliver_after_any_cut(self, src_port, direction, frame, cuts, size):
    """``Link._deliver`` with the fix of the flap-delivery bug reverted:
    a frame that was on the wire when its link was cut is delivered if
    the link is whole again by the time it would have arrived."""
    _deliver(self, src_port, direction, frame, direction.cuts, size)


@pytest.mark.campaign
def test_mutation_frame_delivered_across_a_flap_is_caught(monkeypatch):
    monkeypatch.setattr(Link, "_deliver", _deliver_after_any_cut)
    # The unit test's 1 us fail/recover under a frame on the wire.
    with pytest.raises(AssertionError):
        link_tests.test_cut_and_recovery_under_a_frame_on_the_wire(False)
    # The flaps lane's first frame is on the wire at its cut.
    report = run_campaign(LANES["flaps"])
    assert not report.ok
    assert {v.kind for result in report.results
            for v in result.violations} == {"overlap"}
    assert all(result.steps[-1].startswith("flap")
               for result in report.results if not result.ok)


_settle = Link.settle


def _settle_by_the_clock(self, *args, **kwargs):
    """``Link.settle`` with the fix of the exact-instant cut bug
    reverted: a streamed keepalive's pending arrival counts as arrived
    once the clock has reached it (``deliver_at <= sim.now``), not once
    the kernel has passed its place in the event order. Inside
    ``settle`` that arrival is the only place ``has_fired`` decides
    (``schedule_reserved`` asks it again only of one not yet due)."""
    has_fired = Simulator.has_fired
    Simulator.has_fired = lambda sim, at, _seq: at <= sim.now
    try:
        _settle(self, *args, **kwargs)
    finally:
        Simulator.has_fired = has_fired


@pytest.mark.campaign
def test_mutation_cut_at_an_arrival_ordered_by_the_clock_is_caught(
        monkeypatch):
    monkeypatch.setattr(Link, "settle", _settle_by_the_clock)
    # The unit test's cut at the instant an LDM reaches the far port.
    with pytest.raises(AssertionError):
        keepalive_tests.test_link_cut_at_the_instant_an_ldm_arrives(
            True, False)
    # No other lane cuts at an arrival's exact instant; this one does.
    report = run_campaign(LANES["arrival-cuts"])
    assert not report.ok
    assert {v.kind for result in report.results
            for v in result.violations} == {"cut-arrival"}
    assert all(result.steps[-1].startswith("arrival-cut")
               for result in report.results if not result.ok)


#: What each lane draws from, pinned: a changed row draws other ops
#: from the same seed, so its lane prints something else (a new op
#: belongs in a new row).
LANE_OPS = {
    "default": ("fail", "fail", "fail-switch", "recover", "migrate"),
    "flows": ("fail", "fail", "fail-switch", "recover", "migrate"),
    "hybrid": ("fail", "fail", "fail-switch", "recover", "migrate"),
    "parallel": ("fail", "fail", "fail-switch", "recover", "migrate"),
    "policy": ("fail", "fail", "fail-switch", "recover", "migrate",
               "acl-install", "acl-install", "acl-revoke"),
    "fm": ("fail", "fail", "fail-switch", "recover", "migrate",
           "fm-restart", "fm-partition"),
    "fm-churn": ("fail", "fail", "fail-switch", "recover", "migrate",
                 "migrate", "fm-restart", "fm-partition"),
    "topo-jellyfish": ("fail", "fail", "fail-switch", "recover", "migrate"),
    "topo-twolayer": ("fail", "fail", "fail-switch", "recover", "migrate"),
    "ports": ("fail", "fail", "fail-switch", "recover", "migrate",
              "port-toggle"),
    "ldm-cuts": ("fail", "fail", "fail-switch", "recover", "migrate",
                 "ldm-cut"),
    "expand": ("fail", "fail", "fail-switch", "recover", "migrate",
               "expand"),
    "flaps": ("fail", "fail", "fail-switch", "recover", "migrate", "flap"),
    "arrival-cuts": ("fail", "fail", "fail-switch", "recover", "migrate",
                     "arrival-cut"),
}


def test_every_lane_draws_its_pinned_ops():
    assert {name: row.ops for name, row in LANES.items()} == LANE_OPS


def test_every_op_a_lane_names_is_a_row():
    assert {op for row in LANES.values() for op in row.ops} <= set(OPS)
    # An op that needs something falls back to a row.
    for _step, needs, fallback in OPS.values():
        assert (needs is None) == (fallback is None)
        assert fallback is None or fallback in OPS


def test_unknown_op_is_rejected():
    with pytest.raises(ValueError, match="flood"):
        CampaignConfig(ops=("fail", "flood"))


@pytest.mark.parametrize("backend", ["fattree", "twolayer"])
def test_expand_needs_the_jellyfish_backend(backend):
    with pytest.raises(ValueError, match="expand"):
        CampaignConfig(backend=backend, ops=("fail", "expand"))


@pytest.mark.parametrize("lane", LANES)
def test_every_lane_runs_one_step_cleanly(lane):
    report = run_campaign(replace(LANES[lane], scenarios=1, steps=1))
    assert report.ok, [str(v) for r in report.results for v in r.violations]
    assert len(report.results) == 1


def test_lanes_are_distinct():
    rows = list(LANES.values())
    assert all(a != b for i, a in enumerate(rows) for b in rows[i + 1:])


@pytest.mark.campaign
def test_full_campaign_25_scenarios():
    # The 'make verify' workload as a test: excluded from tier-1 runs by
    # the default '-m "not campaign"' addopts.
    report = run_campaign(LANES["default"])
    assert report.ok, "\n".join(
        str(v) for result in report.results for v in result.violations)


@pytest.mark.parallel
def test_parallel_campaign_matches_sequential():
    """Scenario results are identical at any worker count — parallelism
    only shards independent seeds over processes."""
    sequential = run_campaign(quick_config())
    parallel = run_campaign(quick_config(parallel=2))
    assert parallel.ok == sequential.ok
    assert len(parallel.results) == len(sequential.results)
    for a, b in zip(sequential.results, parallel.results):
        assert (a.seed, a.k, a.steps, a.failed_links, a.hops) == \
               (b.seed, b.k, b.steps, b.failed_links, b.hops)
        assert len(a.violations) == len(b.violations)
