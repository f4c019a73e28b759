"""Scenario-pack smoke tests: incast mice and the fluid engine's
per-class water-filling (docs/POLICY.md)."""

import pytest

from repro.policy import CLASS_PRIORITY, DSCP_EF
from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import LinkParams, build_portland_fabric
from repro.workloads import IncastWorkload


def converged(sim, flow_mode=False, priority_queues=True):
    config = PortlandConfig(flow_mode=flow_mode)
    fabric = build_portland_fabric(
        sim, k=4, config=config,
        link_params=LinkParams(carrier_detect=True,
                               priority_queues=priority_queues))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def run_incast(priority_queues, seed=61):
    sim = Simulator(seed=seed)
    fabric = converged(sim, priority_queues=priority_queues)
    hosts = fabric.host_list()
    reducer = hosts[0]
    senders = [h for h in hosts if h.name.split("-")[1] != "p0"][:6]
    workload = IncastWorkload(sim, senders, reducer, mice_count=60)
    workload.start()
    workload.run()
    return workload


def test_incast_priority_vs_fifo():
    prio = run_incast(True)
    fifo = run_incast(False)
    assert prio.mice_received == prio.mice_sent == 60
    assert prio.mice_lost == 0
    # Same fabric, same load, one knob: FIFO queues the mice behind the
    # elephant backlog (the bench gates 2x at k=8; at this small scale
    # the gap is already well past it, assert a conservative floor).
    assert fifo.mice_stats().p99 > 2 * prio.mice_stats().p99
    # Elephants ran in both arms.
    assert prio.elephant_bytes() > 0
    assert fifo.elephant_bytes() > 0


def test_incast_rejects_empty_senders():
    sim = Simulator(seed=62)
    with pytest.raises(ValueError):
        IncastWorkload(sim, [], reducer=None)


def test_fluid_water_filling_serves_priority_class_first():
    """The fluid analogue of strict priority: on a shared bottleneck a
    priority-class flow takes its demand first and the bulk class gets
    the leftovers."""
    sim = Simulator(seed=65)
    fabric = converged(sim, flow_mode=True)
    engine = fabric.flow_engine
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]
    # Two greedy flows from the same host: the uplink is the shared
    # bottleneck. Without classes they would split it evenly.
    bulk = engine.start_flow(src, dst.ip, size_bytes=None, sport=8001,
                             dport=8001, name="bulk")
    prio = engine.start_flow(src, dst.ip, size_bytes=None, sport=8002,
                             dport=8002, dscp=DSCP_EF, name="prio")
    assert prio.tclass == CLASS_PRIORITY and bulk.tclass == 0
    sim.run(until=sim.now + 0.5)
    engine.settle_now()
    assert prio.rate_bps > 0
    # Strict priority, not fair sharing: the EF flow holds (nearly) the
    # whole bottleneck; the bulk flow is squeezed to a trickle.
    assert prio.rate_bps > 5 * max(bulk.rate_bps, 1.0)


def test_single_class_allocation_matches_classless():
    """Bit-identity cross-check at the engine level: all flows in class
    0 must allocate exactly as the pre-policy engine did (one fair
    split, no class partitioning artifacts)."""
    sim = Simulator(seed=66)
    fabric = converged(sim, flow_mode=True)
    engine = fabric.flow_engine
    hosts = fabric.host_list()
    src, dst = hosts[0], hosts[-1]
    a = engine.start_flow(src, dst.ip, size_bytes=None, sport=8003,
                          dport=8003, name="a")
    b = engine.start_flow(src, dst.ip, size_bytes=None, sport=8004,
                          dport=8004, name="b")
    sim.run(until=sim.now + 0.5)
    engine.settle_now()
    assert a.rate_bps == pytest.approx(b.rate_bps)
    assert a.rate_bps > 0
