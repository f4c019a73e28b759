"""Component-local refill must be indistinguishable from a global one.

The engine recomputes only the coupling components of the flows that
changed (docs/FLOWS.md, "Recomputation points"). The reference is the
textbook formulation it replaced: rebuild the *whole* fabric's problem
from public state — live flows, their pinned segments and
``constrained`` flags, ``Link.fluid_capacity_bps`` — and water-fill it
in one ``max_min_allocate`` call. That oracle lives here only; no
production switch selects it.

Around it: a golden FCT vector recorded before the change (the TCP
model's timing survives), byte-identical output across interpreter hash
seeds (what the ledger reports as a ``sim_digest`` mismatch, caught in
tier-1), a clock-free guard that work per recompute follows the
component rather than the fabric, lazy settlement being invisible
through ``settle_now``, and invalidations that touch no live flow
scheduling nothing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.flows.engine import max_min_allocate
from repro.sim.process import PeriodicTask
from tests.flows.shuffle_k4 import (flow_fabric, observable, run_shuffle,
                                    start_shuffle)

#: Sorted FCTs of the k=4, seed-31, two-permutation shuffle at the
#: parent commit (global refill at every recompute).
GOLDEN_FCTS = [
    0.004461248000000001, 0.004471197120000006, 0.004483647999999993,
    0.004483648000000007, 0.004490336000000011, 0.004519423999999994,
    0.004519423999999994, 0.004519423999999994, 0.004519423999999994,
    0.004519423999999994, 0.004519424000000008, 0.004519424000000008,
    0.004519424000000008, 0.004519424000000008, 0.004519424000000008,
    0.004519424000000008, 0.0045226851200000084, 0.004526112000000013,
    0.004529373120000013, 0.004576183359999986, 0.00457618336,
    0.00458287135999999, 0.00458287135999999, 0.00458287135999999,
    0.00458287135999999, 0.00458287135999999, 0.004582871360000004,
    0.004582871360000004, 0.004582871360000004, 0.004582871360000004,
    0.004582871360000004, 0.004582871360000004]

#: Two of these from one NIC usually saturate it; three always do.
CBR_DEMANDS_BPS = (150e6, 400e6, 600e6, 800e6)


# ----------------------------------------------------------------------
# The from-scratch oracle


def assert_matches_oracle(engine) -> None:
    """Every live flow holds the rate one global water-fill over the
    whole fabric gives it, and no constrained direction is overbooked."""
    routed = [flow for flow in engine.flows if flow._path is not None]
    capacity = {}
    segs_of = []
    active = set()
    for i, flow in enumerate(routed):
        path = flow._path
        ids = [id(port) for _link, port in path.segments]
        for pid, (link, port) in zip(ids, path.segments):
            capacity.setdefault(pid, link.fluid_capacity_bps(port))
        if all(capacity[pid] > 0.0 for pid in ids):
            active.add(i)
        segs_of.append([pid for pid, shared in zip(ids, path.constrained)
                        if shared])
    rates = max_min_allocate([flow.gross_demand_bps for flow in routed],
                             segs_of, dict(capacity), active=active)
    expected = dict.fromkeys(engine.flows, 0.0)  # stalled: nothing
    expected.update(zip(routed, rates))
    load = dict.fromkeys(capacity, 0.0)
    for flow, want in expected.items():
        got = flow.rate_bps * flow.gross_per_payload
        assert got == pytest.approx(want, rel=1e-9, abs=1e-3), flow
    for flow, segs in zip(routed, segs_of):
        for pid in segs:
            load[pid] += flow.rate_bps * flow.gross_per_payload
    for pid, total in load.items():
        assert total <= capacity[pid] * (1 + 1e-9) + 1e-3


def _switch_links(fabric):
    return [link for (a, b), link in sorted(fabric.links.items())
            if a in fabric.switches and b in fabric.switches]


@settings(max_examples=20, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_component_refill_matches_global_oracle(data):
    fabric = flow_fabric(seed=data.draw(st.sampled_from((3, 31, 77))))
    engine, sim = fabric.flow_engine, fabric.sim
    hosts = fabric.host_list()
    links = _switch_links(fabric)
    live, down = [], []
    for step in range(data.draw(st.integers(4, 16))):
        op = data.draw(st.sampled_from(
            ("start", "start", "start", "stop", "stop", "fail", "recover",
             "wait")))
        if op == "start":
            # Two sources, so NICs are shared and components grow.
            src = hosts[data.draw(st.integers(0, 1))]
            dst = data.draw(st.sampled_from(
                [host for host in hosts if host is not src]))
            live.append(engine.start_flow(
                src, dst.ip, dport=7000 + step,
                demand_bps=data.draw(st.sampled_from(CBR_DEMANDS_BPS))))
        elif op == "stop" and live:
            engine.stop_flow(live.pop(data.draw(
                st.integers(0, len(live) - 1))))
        elif op == "fail" and len(down) < 3:
            link = data.draw(st.sampled_from(links))
            if link not in down:
                down.append(link)
                link.fail()
        elif op == "recover" and down:
            down.pop(data.draw(st.integers(0, len(down) - 1))).recover()
        # Long enough for the same-instant recompute, or for the control
        # plane to reconverge and the retry tick to run.
        sim.run(until=sim.now + data.draw(
            st.sampled_from((1e-6, 300e-6, 4e-3, 60e-3))))
        assert_matches_oracle(engine)
    assert engine.stats()["flows_active"] == len(live)


# ----------------------------------------------------------------------
# The TCP model's timing, and determinism across processes


def test_k4_shuffle_reproduces_parent_fcts():
    _fabric, shuffle = run_shuffle(permutations=2)
    fcts = sorted(flow.fct for flow in shuffle.flows)
    assert fcts == pytest.approx(GOLDEN_FCTS, rel=1e-9)
    assert shuffle.total_bytes_moved() == 32 * 250_000


def test_k4_shuffle_is_byte_identical_across_hash_seeds():
    script = Path(__file__).with_name("shuffle_k4.py")
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(script), "2"], capture_output=True,
            text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": src})
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert repr(observable(*run_shuffle(2))) == outputs[0].strip()


# ----------------------------------------------------------------------
# Work follows the component; lazy settlement is invisible


@pytest.mark.parametrize("permutations", [1, 2, 4])
def test_work_per_recompute_follows_the_component(permutations):
    fabric, shuffle = run_shuffle(permutations)
    stats = fabric.flow_engine.stats()
    assert stats["flows_completed"] == 16 * permutations
    # A source NIC carries one flow per permutation: that is the largest
    # component, however many flows the fabric holds.
    assert stats["flows_refilled"] <= (permutations + 1) * stats["recomputes"]
    assert stats["flows_refilled"] >= stats["flows_completed"]


def _port_counters(fabric):
    nodes = list(fabric.switches.values()) + list(fabric.hosts.values())
    return [(port.counters.tx_frames, port.counters.tx_bytes,
             port.counters.rx_frames, port.counters.rx_bytes)
            for node in nodes for port in node.ports]


def test_lazy_settlement_is_invisible_through_settle_now():
    """A mid-run ``settle_now`` then a counter read equals a run that
    settled everybody every few microseconds."""
    lazy_fabric, _ = start_shuffle(2)
    eager_fabric, _ = start_shuffle(2)
    eager = PeriodicTask(eager_fabric.sim, 5e-6,
                         eager_fabric.flow_engine.settle_now)
    eager.start()
    snapshots = []
    for fabric in (lazy_fabric, eager_fabric):
        fabric.sim.run(until=fabric.sim.now + 2.5e-3)  # mid-transfer
        engine = fabric.flow_engine
        assert engine.stats()["flows_active"] == 32
        engine.settle_now()
        snapshots.append((_port_counters(fabric),
                          [flow.transferred_bytes for flow in engine.flows]))
    (lazy_ports, lazy_bytes), (eager_ports, eager_bytes) = snapshots
    assert sum(lazy_bytes) > 0
    assert lazy_ports == eager_ports
    assert lazy_bytes == pytest.approx(eager_bytes, rel=1e-9)


# ----------------------------------------------------------------------
# Invalidations that touch nobody


def _two_intra_edge_flows(fabric):
    hosts = fabric.host_list()
    engine = fabric.flow_engine
    # Same-edge pairs: their paths cross no aggregation or core switch,
    # so no fault override elsewhere rewrites a table under them.
    return (engine.start_flow(hosts[0], hosts[1].ip, demand_bps=100e6),
            engine.start_flow(hosts[2], hosts[3].ip, demand_bps=100e6))


def test_invalidation_that_touches_no_live_flow_schedules_nothing():
    fabric = flow_fabric(seed=77)
    engine, sim = fabric.flow_engine, fabric.sim
    hosts = fabric.host_list()
    f1, f2 = _two_intra_edge_flows(fabric)
    gone = engine.start_flow(hosts[8], hosts[12].ip, demand_bps=100e6)
    sim.run(until=sim.now + 0.01)
    crossed = gone._path.segments[2][0]  # an agg-core link
    engine.stop_flow(gone)
    sim.run(until=sim.now + 0.01)
    before = engine.stats()
    retired = fabric.path_cache.invalidated
    logs = (list(f1.rate_log), list(f2.rate_log))
    # The finished flow's compiled path is still cached: failing a link
    # on it fires the invalidation listener, but no live flow cares.
    crossed.fail()
    sim.run(until=sim.now + 0.2)
    assert fabric.path_cache.invalidated > retired
    assert engine.stats() == before
    assert (f1.rate_log, f2.rate_log) == logs
    assert f1.rate_bps == f2.rate_bps == 100e6


def test_invalidation_refills_only_the_crossing_flows_component():
    fabric = flow_fabric(seed=77)
    engine, sim = fabric.flow_engine, fabric.sim
    hosts = fabric.host_list()
    bystander, _ = _two_intra_edge_flows(fabric)
    crossing = engine.start_flow(hosts[8], hosts[12].ip, demand_bps=100e6)
    sim.run(until=sim.now + 0.01)
    before = engine.stats()
    log = list(bystander.rate_log)
    crossing._path.segments[2][0].fail()
    sim.run(until=sim.now + 0.2)
    after = engine.stats()
    assert crossing.reroutes == 1 and not crossing.stalled
    assert crossing.rate_bps == 100e6
    assert after["recomputes"] > before["recomputes"]
    # Every one of those recomputes refilled the crossing flow alone.
    assert (after["flows_refilled"] - before["flows_refilled"]
            <= after["recomputes"] - before["recomputes"])
    assert bystander.rate_log == log
