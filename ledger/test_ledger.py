"""Checks on the ledger itself, at smoke size.

    PYTHONPATH=src python -m pytest ledger -q

Outside tier-1's ``testpaths``: these run the whole command several
times (about a minute).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def ledger(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two independent smoke runs of the whole set: (stdout, json)."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp("ledger") / f"smoke{i}.json"
        done = ledger("--smoke", "--repeats", "3", "--out", str(out))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        runs.append((done.stdout, json.loads(out.read_text())))
    return runs


def test_benchmark_json_is_the_registry_in_contract_form():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["ledger"]
    assert doc["command"] == ["python3", "ledger/run.py"]
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in WORKLOADS.values()]
    assert {k: doc[k] for k in ("end_to_end", "per_layer")} \
        == metrics.contract()

    # The contract's own limits.
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for entry in doc["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert unit.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    bounds = {e["name"]: e["bound"] for e in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # Every workload must report every contract metric.
    for entry in doc["end_to_end"]:
        metric = next(m for m in metrics.END_TO_END
                      if m.name == entry["name"])
        assert set(metric.workloads) == set(WORKLOADS)


def test_output_schema(smoke_runs):
    _stdout, doc = smoke_runs[0]
    stamp = doc["provenance"]
    assert {"git_sha", "git_dirty", "python", "platform", "cpu_count",
            "seed", "repeats"} <= set(stamp)
    assert stamp["repeats"] == 3 and stamp["seed"] == 31
    assert list(doc["workloads"]) == list(WORKLOADS)
    for summary in doc["workloads"].values():
        assert summary["problems"] == []
        assert summary["ops_attempted"] >= 1
        assert summary["ops_unexpected"] == 0
        assert summary["per_layer"]["verify.violations"]["value"] == 0
        for entry in summary["end_to_end"].values():
            assert isinstance(entry["value"], (int, float))
            if entry["kind"] == "host":
                assert entry["n"] == 3
                assert entry["q1"] <= entry["value"] <= entry["q3"]


def test_every_named_metric_is_printed_and_no_other(smoke_runs):
    stdout, doc = smoke_runs[0]
    layer_names = {m.name for m in metrics.PER_LAYER}
    for name, summary in doc["workloads"].items():
        expected = {m.name for m in metrics.end_to_end_for(name)}
        assert set(summary["end_to_end"]) == expected
        assert set(summary["per_layer"]) == layer_names
    # ... and in the text a person reads.
    section = {}
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = section.setdefault(line.split()[1].rstrip(":"), [])
        elif line.startswith("    ") and "current" in locals():
            current.append(line.split()[0])
    for name in WORKLOADS:
        for metric in metrics.end_to_end_for(name):
            assert metric.name in section[name]
        assert layer_names <= set(section[name])


def test_simulated_numbers_repeat_exactly(smoke_runs):
    first, second = (doc["workloads"] for _stdout, doc in smoke_runs)
    for name in WORKLOADS:
        assert first[name]["sim_digest"] == second[name]["sim_digest"]
        for metric, entry in first[name]["end_to_end"].items():
            if entry["kind"] == "sim":
                assert entry == second[name]["end_to_end"][metric]
        assert (first[name]["per_layer"]["sim.events"]
                == second[name]["per_layer"]["sim.events"])


def test_layer_self_times_partition_the_traced_window(smoke_runs):
    _stdout, doc = smoke_runs[0]
    for summary in doc["workloads"].values():
        layers = summary["per_layer"]
        attributed = sum(entry["value"] for name, entry in layers.items()
                         if name.endswith(".self_s"))
        window = summary["trace"]["window_s"]
        unattributed = layers["trace.unattributed_s"]["value"]
        assert attributed + unattributed == pytest.approx(window, rel=1e-6)
        assert unattributed <= 0.05 * window


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_form(trace):
    done = ledger("--workload", "fault_storm_k8", "--seed", "5",
                  "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = metrics.contract()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "idle_k16", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
