"""Run the benchmark contract the way the growth driver does.

``make ledger-driver``: copy the working tree *without* ``.git`` to a
temporary directory and run, from there, BENCHMARK.json's command in the
contract's exact form,

    python3 ledger/run.py --workload W --seed N --seconds S --trace T

for every workload and ``T`` in 0 and 1, with ``N`` drawn fresh (and
printed). Fails unless every command exits 0 and its last output line
parses as JSON with ``"correct": true`` and ``"failed": 0`` — what the
driver rejects a PR for, caught before submitting.
"""

import json
import secrets
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEFT_BEHIND = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                     ".pytest_cache", ".benchmarks",
                                     "results", "*.egg-info")


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = secrets.randbelow(2 ** 31)
    print(f"ledger-driver: seed {seed}")
    rows = []
    with tempfile.TemporaryDirectory(prefix="ledger-driver-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=LEFT_BEHIND)
        for workload in (w["name"] for w in contract["workloads"]):
            for trace in (0, 1):
                command = [*contract["command"], "--workload", workload,
                           "--seed", str(seed), "--seconds",
                           str(contract["run_seconds"]), "--trace",
                           str(trace)]
                done = subprocess.run(command, cwd=checkout,
                                      capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = {}
                ok = (done.returncode == 0 and result.get("correct") is True
                      and result.get("failed") == 0)
                run_s = result.get("metrics", {}).get("run_s", {}).get("value")
                rows.append(ok)
                print(f"  {'ok  ' if ok else 'FAIL'} {workload:<18} "
                      f"--trace {trace}  exit {done.returncode}  "
                      f"correct {result.get('correct')}  "
                      f"failed {result.get('failed')}"
                      + (f"  run_s {run_s:.3f}" if run_s is not None else ""))
                if not ok:
                    print(done.stdout[-2000:], done.stderr[-2000:],
                          sep="\n", file=sys.stderr)
    print(f"ledger-driver: {sum(rows)}/{len(rows)} commands passed")
    return 0 if all(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
