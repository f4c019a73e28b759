"""Measure a claimed gain the way the benchmark's judge does: in pairs.

``make ledger-pairs PARENT=<rev> WORKLOAD=<w> METRIC=<m>``: export
``<rev>`` with ``git archive`` and copy the working tree (without
``.git``) into a temporary directory, then run each side's own
``ledger/worker.py`` on one workload, one fresh process per repeat, as
ten parent/change pairs that alternate which side goes first — on seed
31 and again on seed 97. For each seed it prints both sides' median and
quartiles of the host metric, how many pairs the change won, whether
the medians differ by more than the distance between the parent's
quartiles (the two conditions of a claim, choosing-metrics section 8),
and a key-by-key comparison of everything simulated. Exits non-zero if
anything simulated differs: then the two sides did different work and
their host times say nothing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from ledger_driver import LEFT_BEHIND, ROOT

SEEDS = (31, 97)
PAIRS = 10
#: Parts of a worker's result that must not depend on the host.
SIMULATED = ("sim", "ops", "samples")
WORKER_TIMEOUT_S = 150


def run_worker(checkout: Path, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(checkout / "ledger" / "worker.py"),
         "--workload", workload, "--seed", str(seed)],
        env={**os.environ, "PYTHONHASHSEED": "0"}, capture_output=True,
        text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout.name} worker exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["problems"]:
        raise RuntimeError(f"{checkout.name} run is incorrect: "
                           f"{result['problems']}")
    return result


def spread(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def simulated_differences(parent: dict, change: dict) -> list:
    """``section.key: parent value != change value`` for every simulated
    number the two results disagree on."""
    differences = []
    for section in SIMULATED:
        for key in sorted(set(parent[section]) | set(change[section])):
            a = parent[section].get(key)
            b = change[section].get(key)
            if a != b:
                differences.append(f"{section}.{key}: {a!r} != {b!r}")
    return differences


def measure_seed(sides: dict, workload: str, metric: str,
                 seed: int) -> bool:
    """Run and report one seed's pairs (every host metric is better
    lower). True if everything simulated agrees, within each side and
    between them."""
    values = {"parent": [], "change": []}
    first = {}
    wins = ties = 0
    same = True
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_worker(sides[side], workload, seed)
            values[side].append(result["host"][metric])
            for line in simulated_differences(first.setdefault(side, result),
                                              result):
                same = False
                print(f"  NOT DETERMINISTIC on the {side} side: {line}")
        a, b = values["parent"][-1], values["change"][-1]
        if a == b:
            ties += 1
        elif b < a:
            wins += 1
    print(f"\n== {workload}, seed {seed}: {metric}, {PAIRS} alternating pairs")
    spreads = {side: spread(values[side]) for side in ("parent", "change")}
    for side, (median, q1, q3) in spreads.items():
        print(f"  {side:<7} median {median:.4g}  quartiles {q1:.4g}..{q3:.4g}")
    parent_median, q1, q3 = spreads["parent"]
    gain = parent_median - spreads["change"][0]
    print(f"  change wins {wins}/{PAIRS} pairs, {ties} ties; medians differ "
          f"by {gain:+.4g} ({gain / parent_median:+.1%} of the parent's), "
          f"parent's quartiles are {q3 - q1:.4g} apart")
    met = wins >= 0.9 * (PAIRS - ties) and wins > 0 and gain > q3 - q1
    print(f"  a claimed gain is {'met' if met else 'NOT met'} on this seed")
    differences = simulated_differences(first["parent"], first["change"])
    for line in differences:
        print(f"  SIMULATED RESULT MOVED: {line}")
    if not differences:
        counted = sum(len(first["parent"][section]) for section in SIMULATED)
        print(f"  simulated results identical, key by key ({counted} values: "
              f"{', '.join(first['parent']['sim'])}, ops, samples)")
    for key in ("sim.events", "sim.events_setup"):
        print(f"  {key}: {first['parent']['layers'][key]} -> "
              f"{first['change']['layers'][key]}")
    return same and not differences


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--metric", required=True,
                        choices=["setup_s", "run_s", "wall_s", "peak_rss_mb"],
                        help="host metric the claim is about")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        sides["parent"].mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.parent],
            capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(sides["parent"])],
                       input=archive.stdout, check=True)
        shutil.copytree(ROOT, sides["change"], ignore=LEFT_BEHIND)
        print(f"ledger-pairs: {args.parent} against the working tree, "
              f"{args.workload}, {args.metric}")
        same = [measure_seed(sides, args.workload, args.metric, seed)
                for seed in SEEDS]
    print("\nledger-pairs: " + ("simulated behaviour identical"
                                if all(same) else "SIMULATED BEHAVIOUR DIFFERS"))
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
