"""The benchmark contract, from the outside: every workload BENCHMARK.json
names still runs against ``src/`` as ``ledger/`` calls it.

Each workload runs once untraced and once traced (``ledger/worker.py``
at k=4 sizes, seed 31), all in concurrent subprocesses. Both must exit
0 with no problems, and tracing must not change anything simulated.
Nothing under ``ledger/`` is modified.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [workload["name"] for workload in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_every_workload_runs_and_tracing_changes_nothing():
    runs = {
        (name, traced): subprocess.Popen(
            [sys.executable, str(ROOT / "ledger" / "worker.py"),
             "--workload", name, "--seed", "31", "--smoke",
             *(["--traced"] if traced else [])],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in WORKLOADS for traced in (False, True)
    }
    results = {}
    for key, process in runs.items():
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, f"{key}: {err[-2000:]}"
        results[key] = json.loads(out)
    for name in WORKLOADS:
        plain, traced = results[name, False], results[name, True]
        assert plain["problems"] == [] and traced["problems"] == [], name
        assert traced["sim_digest"] == plain["sim_digest"], name
