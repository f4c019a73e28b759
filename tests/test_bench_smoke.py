"""Tier-1 fast-path smoke: the compiled-path replay must stay hop-for-hop
equivalent to interpreted per-hop forwarding while never consulting the
decision layer.

What makes the compiled path fast is *structural* — one table probe per
frame instead of one forwarding decision per hop — so that is what this
test counts: exact, repeatable, and independent of the host clock. How
many seconds the difference is worth is the performance ledger's number
(``frame_shuffle_k8``, docs/PERF.md), not a tier-1 assertion.
"""

from repro.portland.config import PortlandConfig
from repro.portland.switch import PortlandSwitch
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.workloads.replay import (
    all_to_all_frames,
    compile_paths,
    compiled_signature,
    decision_signature,
    replay_compiled,
    replay_decisions,
)


def _converged_k4(path_cache_entries: int):
    sim = Simulator(seed=99)
    fabric = build_portland_fabric(
        sim, k=4, config=PortlandConfig(decision_cache_entries=4096,
                                        path_cache_entries=path_cache_entries))
    fabric.bring_up()
    return fabric


def _decisions_during(monkeypatch, replay, workload) -> tuple[int, tuple]:
    """(``_forwarding_decision`` calls, replay result) for one replay."""
    calls = 0
    original = PortlandSwitch._forwarding_decision

    def counting(self, frame, in_index):
        nonlocal calls
        calls += 1
        return original(self, frame, in_index)

    with monkeypatch.context() as patch:
        patch.setattr(PortlandSwitch, "_forwarding_decision", counting)
        result = replay(workload)
    return calls, result


def test_compiled_replay_beats_decision_replay(monkeypatch):
    baseline = _converged_k4(path_cache_entries=0)
    compiled = _converged_k4(path_cache_entries=4096)
    workload_base = all_to_all_frames(baseline)
    workload_compiled = all_to_all_frames(compiled)

    # Warm both layers; every flow must compile and match the
    # interpreted walk hop for hop.
    replay_decisions(workload_base)
    assert compile_paths(compiled, workload_compiled) == len(workload_compiled)
    for node, in_index, frame in workload_compiled:
        assert (compiled_signature(node, in_index, frame)
                == decision_signature(node, in_index, frame))
    assert replay_compiled(workload_compiled) == replay_decisions(
        workload_compiled)

    # The interpreted replay asks the decision layer once per hop; the
    # compiled replay, over the same frames, never asks it at all.
    asked, (hops, delivered) = _decisions_during(
        monkeypatch, replay_decisions, workload_base)
    assert delivered == len(workload_base)
    assert asked == hops > delivered
    asked, walked = _decisions_during(
        monkeypatch, replay_compiled, workload_compiled)
    assert asked == 0
    assert walked == (hops, delivered)


# ----------------------------------------------------------------------
# Events per transmitted frame (docs/PERF.md, "One event per uncontended
# hop"): a count that repeats exactly, never a wall-clock gate


def test_frame_hop_costs_about_one_event():
    """A hop whose wire nobody else wants is one event (the delivery);
    only a frame that has to wait adds a second (the end of the
    serialization it waits for). Scheduling every end of serialization
    costs 2 per frame before timers and control traffic are counted;
    on a TCP shuffle the whole run has to stay under 1.5."""
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
    shuffle.start()
    shuffle.run_until_done(timeout_s=30.0, step_s=0.005)
    events = sim.events_executed - events
    frames = frames_transmitted() - frames
    assert frames > 3_000                 # the shuffle did run per hop
    assert events / frames < 1.5, (events, frames)


# ----------------------------------------------------------------------
# BENCH_*.json artifact schema (see repro.metrics.benchout)

#: Every `make bench-*` lane and the artifact it must commit.
EXPECTED_BENCHES = ("hybrid", "topo", "parallel", "policy")


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
