"""The benchmark contract, from the outside: every workload BENCHMARK.json
names still runs against ``src/`` as ``ledger/`` calls it.

Each workload runs once untraced and once traced (``ledger/worker.py``
at k=4 sizes, seed 31), all in concurrent subprocesses. Both must exit
0 with no problems, and tracing must not change anything simulated.
Behind ``slow``, the same holds for ``idle_k16`` at full size. Nothing
under ``ledger/`` is modified.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [workload["name"] for workload in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run_traced_and_not(workloads, *flags: str) -> None:
    runs = {
        (name, traced): subprocess.Popen(
            [sys.executable, str(ROOT / "ledger" / "worker.py"),
             "--workload", name, "--seed", "31", *flags,
             *(["--traced"] if traced else [])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in workloads for traced in (False, True)
    }
    results = {}
    for key, process in runs.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, f"{key}: {err[-2000:]}"
        results[key] = json.loads(out)
    for name in workloads:
        plain, traced = results[name, False], results[name, True]
        assert plain["problems"] == [] and traced["problems"] == [], name
        assert traced["sim_digest"] == plain["sim_digest"], name


def test_every_workload_runs_and_tracing_changes_nothing():
    _run_traced_and_not(WORKLOADS, "--smoke")


@pytest.mark.slow
def test_idle_k16_at_full_size_runs_and_tracing_changes_nothing():
    """The workload whose run phase is all keepalives, at the size the
    benchmark runs it (~5 s)."""
    _run_traced_and_not(["idle_k16"])
