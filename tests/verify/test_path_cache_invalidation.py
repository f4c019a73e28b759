"""Path-cache soundness under faults: a compiled path must die the
moment any hop's state changes, and in-flight launched frames must
revalidate physically.

Mirrors ``test_cache_invalidation`` one level up: the runtime oracle
watches every hop (compiled launches synthesize the same ``verify.hop``
stream), the stats counters prove the cut-through path was engaged and
flushed, and a seeded campaign exercises the whole fault repertoire with
the cache on.
"""

import pytest

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.verify.campaign import LANES, run_campaign
from repro.verify.oracle import InvariantOracle
from repro.verify.walk import check_all_pairs_delivery


def _converged(seed=1234):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=4, config=PortlandConfig(path_cache_entries=4096))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def _active_compiled_path(src):
    """The live flow's compiled path at its ingress edge switch."""
    ingress = src.nic.peer.node
    paths = [p for p in ingress._path_table.values()
             if p.compiled and len(p.hops) >= 4]
    assert paths, "the flow's path never compiled"
    return paths[0]


def test_mid_path_link_failure_invalidates_compiled_paths():
    fabric = _converged()
    sim = fabric.sim
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]  # cross-pod: the path crosses the core
    receiver = UdpStreamReceiver(dst, 7300)
    with InvariantOracle(fabric) as oracle:
        UdpStreamSender(src, dst.ip, 7300, rate_pps=2000.0).start()
        sim.run(until=sim.now + 0.2)
        warm = fabric.path_cache_stats()
        assert warm["launches"] > 0, "cut-through never engaged"
        assert len(receiver.arrivals) > 0

        # Fail the agg->core link the flow actually traverses.
        fail_time = sim.now
        _active_compiled_path(src).links[1].fail()
        sim.run(until=fail_time + 1.0)

        after = fabric.path_cache_stats()
        assert after["invalidated"] > warm["invalidated"], (
            "link failure retired no compiled path")
        assert after["launches"] > warm["launches"], (
            "cache never re-engaged after the failure")
        # The stream recovered once the fabric manager converged.
        recovered = [t for t, _seq, _delay in receiver.arrivals
                     if t > fail_time + 0.7]
        assert recovered, "flow did not survive the failure"
        # Every hop — interpreted or synthesized by a launch — was clean.
        assert oracle.hops > 0
        assert oracle.violations == []
        assert oracle.check_now() == []
    assert check_all_pairs_delivery(fabric) == []


def test_recovery_invalidates_again_and_stays_clean():
    # FaultClear must retire paths compiled while the link was out, or
    # traffic keeps detouring around a healthy link forever.
    fabric = _converged(seed=1235)
    sim = fabric.sim
    hosts = fabric.host_list()
    src, dst = hosts[-1], hosts[0]
    receiver = UdpStreamReceiver(dst, 7301)
    with InvariantOracle(fabric) as oracle:
        UdpStreamSender(src, dst.ip, 7301, rate_pps=1000.0).start()
        sim.run(until=sim.now + 0.2)
        link = _active_compiled_path(src).links[1]
        link.fail()
        sim.run(until=sim.now + 0.8)
        mid = fabric.path_cache_stats()
        assert mid["launches"] > 0
        link.recover()
        sim.run(until=sim.now + 0.8)
        after = fabric.path_cache_stats()
        assert after["invalidated"] > mid["invalidated"], (
            "recovery retired no compiled path")
        assert after["compiles"] > mid["compiles"], (
            "no path recompiled after recovery")
        assert oracle.violations == []
        assert oracle.check_now() == []
    assert len(receiver.arrivals) > 0
    assert check_all_pairs_delivery(fabric) == []


@pytest.mark.campaign
def test_full_campaign_25_scenarios_with_path_cache():
    # The oracle-checked fault repertoire (multi-link failures, switch
    # failures, recoveries, migrations) with cut-through transit on.
    report = run_campaign(LANES["path-cache"])
    assert report.ok, "\n".join(
        str(v) for result in report.results for v in result.violations)
    launches = sum(result.path_launches for result in report.results)
    assert launches > 0, "campaign never exercised the compiled path"
