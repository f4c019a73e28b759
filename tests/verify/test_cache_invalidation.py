"""Decision-cache soundness under faults: a link failing mid-flow must
never leave a switch forwarding on a stale cached decision.

The runtime oracle watches every hop across the fault transition (loop
and up-after-down invariants), the static walker checks the converged
tables, and the cache counters prove the fast path was actually engaged
and flushed — a silently bypassed cache would make these tests
vacuously green.
"""

import random

import pytest

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.verify.oracle import InvariantOracle
from repro.verify.walk import check_all_pairs_delivery
from repro.workloads.failures import switch_link_names


def test_link_failure_mid_flow_never_serves_stale_decision(fabric):
    sim = fabric.sim
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]  # cross-pod: the flow crosses the core
    receiver = UdpStreamReceiver(dst, 7000)
    with InvariantOracle(fabric) as oracle:
        UdpStreamSender(src, dst.ip, 7000, rate_pps=2000.0).start()
        sim.run(until=sim.now + 0.2)
        warm = fabric.decision_cache_stats()
        assert warm["hits"] > 0, "fast path never engaged"
        assert len(receiver.arrivals) > 0

        # Cut the agg->core link the flow crosses: the switches either
        # side of it hold plans compiled while it was up. (A link off
        # the path changes only tables whose memos are empty, and an
        # empty memo has nothing to flush.)
        agg, core = (next(name for name, switch in fabric.switches.items()
                          if name.startswith(level)
                          and len(switch.table.plans))
                     for level in ("agg-p0", "core"))
        fail_time = sim.now
        fabric.link_between(agg, core).fail()
        sim.run(until=fail_time + 1.0)

        after = fabric.decision_cache_stats()
        assert after["flushes"] > warm["flushes"], (
            "link failure flushed no decision cache")
        assert after["hits"] > warm["hits"], "cache never refilled"
        # The stream recovered once the fabric manager converged.
        recovered = [t for t, _seq, _delay in receiver.arrivals
                     if t > fail_time + 0.7]
        assert recovered, "flow did not survive the failure"
        # No hop anywhere crossed a stale path: no loop, no re-ascent
        # through an upward entry after descending.
        assert oracle.hops > 0
        assert oracle.violations == []
        assert oracle.check_now() == []
    # The converged tables deliver all pairs — cached or walked.
    assert check_all_pairs_delivery(fabric) == []


def test_recovery_flushes_again_and_stays_clean(fabric):
    # The return path matters too: EnableLink must drop decisions cached
    # while the link was out, or traffic keeps avoiding a healthy path.
    sim = fabric.sim
    link = fabric.link_between("agg-p1-s0", "core-0")
    hosts = fabric.host_list()
    receiver = UdpStreamReceiver(hosts[0], 7001)
    with InvariantOracle(fabric) as oracle:
        UdpStreamSender(hosts[-1], hosts[0].ip, 7001,
                        rate_pps=1000.0).start()
        link.fail()
        sim.run(until=sim.now + 0.8)
        mid = fabric.decision_cache_stats()
        link.recover()
        sim.run(until=sim.now + 0.8)
        after = fabric.decision_cache_stats()
        assert after["flushes"] > mid["flushes"], (
            "recovery flushed no decision cache")
        assert oracle.violations == []
        assert oracle.check_now() == []
    assert len(receiver.arrivals) > 0
    assert check_all_pairs_delivery(fabric) == []


@pytest.mark.campaign
def test_fail_recover_campaign_never_serves_stale_decisions():
    """Seeded fail/recover cycles with live probe flows and the cache on.

    Complements ``test_full_campaign_25_scenarios`` (which now also runs
    with the cache enabled by default) with a focused loop that checks
    the cache counters each cycle: engaged before the fault, flushed by
    it, refilled after, and never a single oracle violation.
    """
    rng = random.Random(7)
    for scenario in range(5):
        sim = Simulator(seed=1000 + scenario)
        fabric = build_portland_fabric(sim, k=4)
        fabric.start()
        fabric.run_until_located()
        fabric.announce_hosts()
        fabric.run_until_registered()

        hosts = fabric.host_list()
        rng.shuffle(hosts)
        for i in range(4):
            UdpStreamReceiver(hosts[2 * i + 1], 6000 + i)
            UdpStreamSender(hosts[2 * i], hosts[2 * i + 1].ip, 6000 + i,
                            rate_pps=500.0).start()
        candidates = switch_link_names(fabric.tree)
        with InvariantOracle(fabric) as oracle:
            sim.run(until=sim.now + 0.2)
            for _cycle in range(3):
                before = fabric.decision_cache_stats()
                assert before["hits"] > 0
                links = [fabric.link_between(*pair) for pair in
                         rng.sample(candidates, rng.randint(1, 2))]
                for link in links:
                    link.fail()
                sim.run(until=sim.now + 0.6)
                failed = fabric.decision_cache_stats()
                assert failed["flushes"] > before["flushes"]
                for link in links:
                    link.recover()
                sim.run(until=sim.now + 0.6)
                assert fabric.decision_cache_stats()["hits"] > before["hits"]
            assert oracle.violations == [], (
                f"scenario {scenario}: stale forwarding decisions: "
                f"{oracle.violations}")
            assert oracle.check_now() == []
        assert check_all_pairs_delivery(fabric) == []
