"""Path-cache soundness under faults: a fluid flow's compiled path must
die the moment any hop's state changes, and the flow must re-resolve
around the fault.

Mirrors ``test_cache_invalidation`` one level up: the runtime oracle
checks every path the flow engine pins (``verify.flow`` records), the
stats counters prove the compiled path was retired and recompiled, and
the all-pairs walk is clean afterwards.
"""

from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.verify.oracle import InvariantOracle
from repro.verify.walk import check_all_pairs_delivery

DEMAND_BPS = 50e6


def _converged(seed=1234):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=4, config=PortlandConfig(flow_mode=True))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def _run(fabric, seconds):
    fabric.sim.run(until=fabric.sim.now + seconds)
    fabric.flow_engine.settle_now()


def _pinned_path(flow):
    """The flow's compiled path, which crosses the core."""
    path = flow._path.compiled
    assert path is not None, "the flow's path never compiled"
    assert len(path.hops) >= 4
    return path


def _links_of(flow):
    return [link for link, _port in flow._path.segments]


def test_mid_path_link_failure_invalidates_compiled_paths():
    fabric = _converged()
    engine = fabric.flow_engine
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]  # cross-pod: the path crosses the core
    with InvariantOracle(fabric) as oracle:
        flow = engine.start_flow(src, dst.ip, demand_bps=DEMAND_BPS)
        _run(fabric, 0.2)
        path = _pinned_path(flow)
        warm = fabric.path_cache_stats()

        # Fail the agg->core link the flow actually traverses.
        link = path.links[1]
        link.fail()
        _run(fabric, 1.0)

        after = fabric.path_cache_stats()
        assert not path.alive
        assert after["invalidated"] > warm["invalidated"], (
            "link failure retired no compiled path")
        assert after["compiles"] > warm["compiles"]
        # Once the fabric manager converged the flow is pinned again,
        # around the dead link, and moving at its demand.
        rerouted = _pinned_path(flow)
        assert link not in _links_of(flow)
        assert flow.reroutes >= 1
        assert flow.rate_bps > 0
        assert oracle.flow_paths > 0
        assert oracle.violations == []
        assert oracle.check_now() == []
        assert rerouted.alive
    assert check_all_pairs_delivery(fabric) == []


def test_recovery_invalidates_again_and_stays_clean():
    # FaultClear must retire paths compiled while the link was out, or
    # traffic keeps detouring around a healthy link forever.
    fabric = _converged(seed=1235)
    engine = fabric.flow_engine
    hosts = fabric.host_list()
    src, dst = hosts[-1], hosts[0]
    with InvariantOracle(fabric) as oracle:
        flow = engine.start_flow(src, dst.ip, demand_bps=DEMAND_BPS)
        _run(fabric, 0.2)
        link = _pinned_path(flow).links[1]
        link.fail()
        _run(fabric, 0.8)
        detour = _pinned_path(flow)
        mid = fabric.path_cache_stats()
        link.recover()
        _run(fabric, 0.8)
        after = fabric.path_cache_stats()
        assert not detour.alive
        assert after["invalidated"] > mid["invalidated"], (
            "recovery retired no compiled path")
        assert after["compiles"] > mid["compiles"], (
            "no path recompiled after recovery")
        assert _pinned_path(flow).alive
        assert flow.rate_bps > 0
        assert oracle.violations == []
        assert oracle.check_now() == []
    assert check_all_pairs_delivery(fabric) == []
