"""The performance ledger: one command, four workloads, whole-run and
per-layer numbers.

    python ledger/run.py                     every workload, 5 repeats
    python ledger/run.py --workload idle_k16 --repeats 3 --out FILE
    python ledger/run.py --smoke             k=4 sizes, under 30 s
    python ledger/run.py --selfcheck         two sets, compared
    python ledger/run.py --workload W --seed N --seconds S --trace 0|1
                                             the benchmark contract's form

Every repeat is a fresh ``worker.py`` process (one at a time), so peak
RSS is per repeat and nothing is warm. Host metrics are medians over
the repeats; simulated metrics must be identical across them. After the
untraced repeats each workload runs once more with tracing on, for the
per-layer self times. Exits non-zero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
DEFAULT_REPEATS = 5
MIN_REPEATS = 3
MAX_REPEATS = 25


def run_worker(workload: str, seed: int, traced: bool, smoke: bool) -> dict:
    """One repeat in a fresh process; raises if it crashes."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--traced")
    if smoke:
        command.append("--smoke")
    # subprocess.run kills and reaps the child on timeout or interrupt.
    done = subprocess.run(command, env={**os.environ, "PYTHONHASHSEED": "0"},
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def provenance(seed: int) -> dict:
    def git(*args) -> str | None:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Aggregation


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(workload: str, untraced: list, traced: list) -> dict:
    """Fold one workload's repeats into medians, values and verdicts."""
    first = untraced[0]
    problems = []
    for run in untraced + traced:
        problems.extend(run["problems"])
        if run["sim_digest"] != first["sim_digest"]:
            kind = "traced" if run["traced"] else "untraced"
            problems.append(
                f"sim_digest {run['sim_digest']} of a {kind} repeat differs "
                f"from {first['sim_digest']}: same seed, different behaviour")
    end_to_end = {}
    for metric in metrics.end_to_end_for(workload):
        if metric.kind == "host":
            values = [run["host"][metric.name] for run in untraced]
            q1, q3 = quartiles(values)
            end_to_end[metric.name] = {
                "value": statistics.median(values), "unit": metric.unit,
                "kind": "host", "q1": q1, "q3": q3, "n": len(values)}
        elif metric.name in first["sim"]:
            entry = {"value": first["sim"][metric.name],
                     "unit": metric.unit, "kind": "sim"}
            if metric.name in first["samples"]:
                entry["n"] = first["samples"][metric.name]
            end_to_end[metric.name] = entry
    per_layer = {}
    for metric in metrics.PER_LAYER:
        runs = traced if metric.source == "trace" else untraced
        values = [run["layers"][metric.name] for run in runs
                  if metric.name in run["layers"]]
        if metric.name == "trace.overhead_ratio" and traced:
            values = [statistics.median(r["host"]["run_s"] for r in traced)
                      / end_to_end["run_s"]["value"]]
        if values:
            per_layer[metric.name] = {"value": statistics.median(values),
                                      "unit": metric.unit}
    return {
        "workload": workload,
        "repeats": len(untraced),
        "end_to_end": end_to_end,
        "ops_attempted": first["ops"]["attempted"],
        "ops_failed": first["ops"]["failed"],
        "ops_unexpected": first["ops"]["unexpected"],
        "sim_digest": first["sim_digest"],
        "per_layer": per_layer,
        "trace": traced[0]["trace"] if traced else None,
        "problems": sorted(set(problems)),
    }


def measure(workloads: list, seed: int, repeats: int, smoke: bool) -> dict:
    """``repeats`` untraced passes over the workloads, the order rotated
    each pass so no workload always runs after the same neighbour, then
    one traced repeat each."""
    untraced = {name: [] for name in workloads}
    for r in range(repeats):
        shift = r % len(workloads)
        for name in workloads[shift:] + workloads[:shift]:
            untraced[name].append(run_worker(name, seed, False, smoke))
    return {name: summarize(name, untraced[name],
                            [run_worker(name, seed, True, smoke)])
            for name in workloads}


def measure_for(workload: str, seed: int, seconds: float, smoke: bool,
                trace: bool) -> dict:
    """As many repeats of one workload as fit in ``seconds`` (at least
    MIN_REPEATS); with ``trace`` every other repeat is a traced one."""
    started = time.perf_counter()
    untraced, traced = [], []
    longest = 0.0
    while len(untraced) < MAX_REPEATS:
        elapsed = time.perf_counter() - started
        enough = len(untraced) >= (1 if trace else MIN_REPEATS)
        if enough and elapsed + longest > seconds:
            break
        begun = time.perf_counter()
        untraced.append(run_worker(workload, seed, False, smoke))
        if trace:
            traced.append(run_worker(workload, seed, True, smoke))
        longest = max(longest, time.perf_counter() - begun)
    return summarize(workload, untraced, traced)


# ----------------------------------------------------------------------
# Reporting


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def bound_text(metric) -> str:
    return f"{metric.bound:.0%}" if metric.bound else "no increase"


def print_summary(summary: dict, why: str) -> None:
    name = summary["workload"]
    print(f"\n== {name}: {summary['repeats']} repeats — {why}")
    print("  end to end")
    for metric in metrics.end_to_end_for(name):
        entry = summary["end_to_end"].get(metric.name)
        if entry is None:
            continue
        line = (f"    {metric.name:<14} {fmt(entry['value']):>12} "
                f"{metric.unit:<6} {metric.kind:<5}")
        if metric.kind == "host":
            line += (f" median of {entry['n']}, quartiles "
                     f"{fmt(entry['q1'])}..{fmt(entry['q3'])}")
        elif "n" in entry:
            line += f" {entry['n']} samples"
        print(f"{line}  (bound {bound_text(metric)})")
    print(f"    ops_attempted = {summary['ops_attempted']}, ops_failed = "
          f"{summary['ops_failed']}, without a modelled cause = "
          f"{summary['ops_unexpected']}")
    print(f"    sim_digest = {summary['sim_digest']}")
    print("  per layer")
    for metric in metrics.PER_LAYER:
        entry = summary["per_layer"].get(metric.name)
        if entry is not None:
            print(f"    {metric.name:<30} {fmt(entry['value']):>12} "
                  f"{metric.unit}")
    trace = summary["trace"]
    if trace:
        window = trace["window_s"]
        print(f"  traced window {window:.3f} s by layer (self time, share, "
              "spans)")
        for layer, totals in sorted(trace["layers"].items(),
                                    key=lambda item: -item[1]["self_s"]):
            if totals["calls"]:
                print(f"    {layer:<10} {totals['self_s']:8.3f} s "
                      f"{totals['self_s'] / window:6.1%} {totals['calls']:>9}")
    for problem in summary["problems"]:
        print(f"  FAILED: {problem}")


def print_provenance(stamp: dict, repeats) -> None:
    dirty = " (dirty)" if stamp["git_dirty"] else ""
    print(f"ledger: git {stamp['git_sha']}{dirty}, python {stamp['python']}, "
          f"{stamp['platform']}, {stamp['cpu_count']} cpus, "
          f"seed {stamp['seed']}, repeats {repeats}")


def selfcheck(first: dict, second: dict) -> bool:
    """Compare two sets of the same code. True when no simulated number
    moved; host metrics past their bound are only flagged."""
    deterministic = True
    print("\n== selfcheck: second set against the first")
    for name, a in first.items():
        b = second[name]
        for metric in metrics.end_to_end_for(name):
            if metric.name not in a["end_to_end"]:
                continue
            x = a["end_to_end"][metric.name]["value"]
            y = b["end_to_end"][metric.name]["value"]
            diff = abs(y - x) / abs(x) if x else abs(y - x)
            verdict = "ok"
            if metric.kind == "sim" and x != y:
                verdict, deterministic = "DETERMINISM BUG", False
            elif metric.kind == "host" and diff > metric.bound:
                verdict = "unresolved (noise exceeds the bound)"
            print(f"  {name:<18} {metric.name:<14} {fmt(x):>12} "
                  f"{fmt(y):>12}  differ {diff:6.2%}, bound "
                  f"{bound_text(metric)}  {verdict}")
        if a["sim_digest"] != b["sim_digest"]:
            deterministic = False
            print(f"  {name:<18} sim_digest {a['sim_digest']} != "
                  f"{b['sim_digest']}  DETERMINISM BUG")
    return deterministic


def contract_line(summary: dict, trace: bool) -> str:
    """The benchmark contract's result: one JSON object, last on stdout."""
    if trace:
        names = [m.name for m in metrics.PER_LAYER]
        source = summary["per_layer"]
    else:
        names = [m.name for m in metrics.END_TO_END
                 if m.contract_bound is not None]
        source = summary["end_to_end"]
    return json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["ops_attempted"] * summary["repeats"],
        "failed": summary["ops_unexpected"] * summary["repeats"],
        "metrics": {name: {"value": source[name]["value"],
                           "unit": source[name]["unit"]} for name in names},
    })


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no simulator under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", type=Path,
                        help="also write everything as JSON to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at k=4 with reduced sizes")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice and compare the medians")
    parser.add_argument("--seconds", type=float,
                        help="benchmark contract: repeat --workload for "
                             "this long and end with its JSON result line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: 0 reports the end-to-end "
                             "metrics, 1 the per-layer ones")
    args = parser.parse_args(argv)
    repeats = max(args.repeats, MIN_REPEATS)
    names = [args.workload] if args.workload else list(WORKLOADS)
    stamp = provenance(args.seed)

    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        summary = measure_for(args.workload, args.seed, args.seconds,
                              args.smoke, bool(args.trace))
        print_provenance(stamp, summary["repeats"])
        print_summary(summary, WORKLOADS[args.workload].why)
        print(contract_line(summary, bool(args.trace)))
        return 1 if summary["problems"] else 0

    print_provenance(stamp, repeats)
    sets = [measure(names, args.seed, repeats, args.smoke)]
    if args.selfcheck:
        sets.append(measure(names, args.seed, repeats, args.smoke))
    for name, summary in sets[0].items():
        print_summary(summary, WORKLOADS[name].why)
    ok = all(not s["problems"] for results in sets for s in results.values())
    if args.selfcheck:
        ok = selfcheck(*sets) and ok
    if args.out:
        args.out.write_text(json.dumps({
            "provenance": {**stamp, "repeats": repeats, "smoke": args.smoke},
            "workloads": sets[0],
            "second_set": sets[1] if args.selfcheck else None,
        }, indent=1) + "\n")
    print("\nledger: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
