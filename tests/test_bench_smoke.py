"""Tier-1 fast-path smoke: what a frame hop costs, counted.

The flow engine's compiled paths must stay hop-for-hop equivalent to
per-hop forwarding, and the per-hop replay asks the decision layer
exactly once per hop. The costs are *structural* counts — decisions,
events, calls and matches per hop — so they are exact, repeatable, and
independent of the host clock. How many seconds they are worth is the
performance ledger's number (``frame_shuffle_k8``, docs/PERF.md), not a
tier-1 assertion.
"""

import pytest

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.switching.flow_table import FlowTable
from repro.topology import build_portland_fabric
from repro.topology.builder import LinkParams
from repro.workloads.replay import (
    all_to_all_frames,
    decision_signature,
    replay_decisions,
)


def _converged_k4(flow_mode: bool):
    sim = Simulator(seed=99)
    fabric = build_portland_fabric(
        sim, k=4, config=PortlandConfig(flow_mode=flow_mode))
    fabric.bring_up()
    return fabric


def _decisions_during(monkeypatch, replay, workload) -> tuple[int, tuple]:
    """(``FlowTable.decide`` calls, replay result) for one replay."""
    calls = 0
    original = FlowTable.decide

    def counting(self, frame, in_port, ports):
        nonlocal calls
        calls += 1
        return original(self, frame, in_port, ports)

    with monkeypatch.context() as patch:
        patch.setattr(FlowTable, "decide", counting)
        result = replay(workload)
    return calls, result


def test_compiled_replay_beats_decision_replay(monkeypatch):
    baseline = _converged_k4(flow_mode=False)
    compiled = _converged_k4(flow_mode=True)
    workload_base = all_to_all_frames(baseline)
    workload_compiled = all_to_all_frames(compiled)

    # Every flow must compile and match the interpreted walk hop for hop.
    cache = compiled.path_cache
    compiled_hops = 0
    for node, in_index, frame in workload_compiled:
        path = cache.resolve(node, frame, in_index)
        assert path is not None
        assert (tuple((hop.node.name, hop.out_port.index)
                      for hop in path.hops)
                == decision_signature(node, in_index, frame))
        compiled_hops += len(path.hops)

    # The interpreted replay asks the decision layer once per hop, on
    # the same hops the compiled paths hold.
    replay_decisions(workload_base)
    asked, (hops, delivered) = _decisions_during(
        monkeypatch, replay_decisions, workload_base)
    assert delivered == len(workload_base)
    assert asked == hops == compiled_hops > delivered


# ----------------------------------------------------------------------
# What a frame hop costs, as counts that repeat exactly, never a
# wall-clock gate (docs/PERF.md, "One event per uncontended hop" and
# "The hop as a plan"). One k=4 TCP shuffle, run once under cProfile,
# supplies all three.


@pytest.fixture(scope="module")
def shuffle_counts():
    """(events executed, frames transmitted, Python-level function
    calls, ``Match.matches`` calls, ``PortlandSwitch.receive`` calls)
    of the run phase of a k=4 TCP shuffle."""
    import cProfile
    import pstats
    import random

    from repro.workloads.shuffle import ShuffleWorkload
    from repro.workloads.traffic import random_permutation_pairs

    sim = Simulator(seed=31)
    fabric = build_portland_fabric(sim, k=4)
    fabric.bring_up()
    hosts = fabric.host_list()
    ports = [port for node in [*fabric.switches.values(), *hosts]
             for port in node.ports]

    def frames_transmitted() -> int:
        return sum(port.counters.tx_frames for port in ports)

    events, frames = sim.events_executed, frames_transmitted()
    shuffle = ShuffleWorkload(
        sim, hosts, pairs=random_permutation_pairs(hosts, random.Random(31)),
        bytes_per_flow=40_000, stagger_s=100e-6)
    profiler = cProfile.Profile()
    profiler.enable()
    shuffle.start()
    shuffle.run_until_done(timeout_s=30.0, step_s=0.005)
    profiler.disable()
    calls = {"python": 0, "matches": 0, "receive": 0}
    for (filename, _line, name), row in pstats.Stats(profiler).stats.items():
        if filename == "~":  # a C function: not a Python-level call
            continue
        calls["python"] += row[1]
        if filename.endswith("switching/flow_table.py") and name == "matches":
            calls["matches"] += row[1]
        if filename.endswith("portland/switch.py") and name == "receive":
            calls["receive"] += row[1]
    return (sim.events_executed - events, frames_transmitted() - frames,
            calls["python"], calls["matches"], calls["receive"])


def test_frame_hop_costs_about_one_event(shuffle_counts):
    """A hop whose wire nobody else wants is one event (the delivery);
    only a frame that has to wait adds a second (the end of the
    serialization it waits for). Scheduling every end of serialization
    costs 2 per frame before timers and control traffic are counted;
    on a TCP shuffle the whole run has to stay under 1.5."""
    events, frames, *_ = shuffle_counts
    assert frames > 3_000                 # the shuffle did run per hop
    assert events / frames < 1.5, (events, frames)


def test_frame_hop_costs_a_bounded_number_of_calls(shuffle_counts):
    """Host TCP, link, kernel and switch together: 43.1 Python-level
    calls per transmitted frame with an interpreted verdict, an
    unindexed rewrite table and the clock behind a property, 31.7 with
    a plan. The margin is for interpreter versions, not for a second
    interpreter."""
    _events, frames, calls, *_ = shuffle_counts
    assert calls / frames < 37, (calls, frames)


def test_switch_receive_evaluates_few_matches(shuffle_counts):
    """Stage 1 evaluates only the entries of the ingress port (one, at
    a host port; none elsewhere) and stage 2 none on a cache hit: 0.3
    ``Match.matches`` calls per switch receive, where walking the whole
    rewrite table cost 2 at k=4 and grew with k."""
    *_, matches, receives = shuffle_counts
    assert receives > 2_000
    assert matches / receives < 0.5, (matches, receives)


@pytest.mark.parametrize("k", [4, 8])
def test_bring_up_notifies_at_most_once_per_installed_entry(monkeypatch, k):
    """Forwarding state is O(k) per switch, and so must be the work of
    writing it: over a cold bring-up the tables tell their listeners of
    a change (version bump, candidate tuples dropped, decision and path
    caches flushed) less than once per entry they end up holding —
    0.94 at k=4, 0.92 at k=8. Removing entries to install them again
    cost 2.24 and 3.67, and grew with k (docs/PERF.md)."""
    notifications = 0
    original = FlowTable._changed

    def counting(table):
        nonlocal notifications
        notifications += 1
        original(table)

    monkeypatch.setattr(FlowTable, "_changed", counting)
    fabric = build_portland_fabric(Simulator(seed=31), k=k)
    fabric.bring_up()
    entries = sum(len(switch.table) + len(switch.rewrite_table)
                  for switch in fabric.switches.values())
    assert entries == {4: 136, 8: 864}[k]   # every switch fully programmed
    assert notifications <= entries, (notifications, entries)


def test_decision_caches_flush_only_when_a_table_changes():
    """A cached plan dies when its switch's forwarding table changes,
    and nothing else retires it: over silent link failures under probe
    traffic, the fabric's decision-cache flushes cannot outnumber its
    table mutations. With the agents flushing by hand after every fault
    and link message as well, this schedule flushed 161 times for 80
    mutations."""
    sim = Simulator(seed=31)
    fabric = build_portland_fabric(
        sim, k=4, link_params=LinkParams(carrier_detect=False))
    fabric.bring_up()
    hosts = fabric.host_list()
    for i, src in enumerate(hosts):
        dst = hosts[(i + 5) % len(hosts)]
        UdpStreamReceiver(dst, 7000 + i)
        UdpStreamSender(src, dst.ip, 7000 + i, rate_pps=1000.0).start()
    sim.run(until=sim.now + 0.01)
    switches = list(fabric.switches.values())

    def totals() -> tuple[int, int]:
        return (sum(s.table.flushes for s in switches),
                sum(s.table.version for s in switches))

    before = totals()
    links = [link for (a, b), link in sorted(fabric.links.items())
             if a in fabric.switches and b in fabric.switches]
    for n, link in enumerate(links[::4]):
        sim.schedule(0.01 + 0.02 * n, link.fail)
    sim.run(until=sim.now + 0.25)
    flushes, mutations = (now - then for now, then in zip(totals(), before))
    assert mutations > 0 and flushes > 0   # the faults did reprogram
    assert flushes <= mutations, (flushes, mutations)


# ----------------------------------------------------------------------
# BENCH_*.json artifact schema (see repro.metrics.benchout)

#: Every `make bench-*` lane and the artifact it must commit.
EXPECTED_BENCHES = ("hybrid", "topo", "policy")


def test_bench_payload_roundtrip():
    from repro.metrics.benchout import (bench_payload,
                                        validate_bench_payload,
                                        write_bench_json)

    payload = bench_payload("demo", ratio=2.5, events=1000, wall_s=0.5,
                            config={"k": 4}, extra_series=[1, 2, 3])
    validate_bench_payload(payload)
    assert payload["schema"] == 1
    assert payload["extra_series"] == [1, 2, 3]

    import json
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = write_bench_json("demo", payload, root=Path(tmp))
        assert path.name == "BENCH_demo.json"
        assert json.loads(path.read_text()) == payload


def test_bench_payload_rejects_schema_drift():
    import pytest

    from repro.metrics.benchout import bench_payload, validate_bench_payload

    good = bench_payload("demo", ratio=1.0, events=1, wall_s=0.1, config={})
    for key in ("bench", "ratio", "events", "wall_s", "config"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ValueError):
            validate_bench_payload(broken)
    with pytest.raises(ValueError):
        validate_bench_payload({**good, "schema": 99})
    with pytest.raises(ValueError):
        validate_bench_payload({**good, "ratio": "fast"})


def test_committed_bench_artifacts_conform():
    """Every committed BENCH_<name>.json validates, and every bench lane
    has committed one."""
    import json

    from repro.metrics.benchout import find_bench_files, validate_bench_payload

    found = find_bench_files()
    for name in EXPECTED_BENCHES:
        assert name in found, (
            f"BENCH_{name}.json missing at the repo root — run its "
            f"`make bench-*` target and commit the artifact")
    for name, path in found.items():
        payload = json.loads(path.read_text())
        validate_bench_payload(payload)
        assert payload["bench"] == name
