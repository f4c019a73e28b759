"""Reach census: the functions under ``src/`` that no run outside the
tests enters.

    make census                          (about 20 min on 2 vCPUs)
    python3 benchmarks/census.py [--tree DIR]

Copies the tree (``--tree``, default this checkout) without ``.git`` to
a temporary directory, because the runs write files there: the benches
rewrite ``BENCH_*.json`` and ``results/``, and the examples write their
outputs. In that copy it makes every run below with a
copy of ``benchmarks/census_site`` on ``PYTHONPATH``, so every Python
process they start, child processes and threads included, profiles
itself and leaves one dump of the functions it entered
(``census_site/sitecustomize.py``):

- every example;
- ``ledger/run.py --smoke``;
- each CLI subcommand, ``verify all`` as the verify one;
- ``pytest benchmarks --benchmark-disable``. pytest-benchmark's
  instrumentation pause turns a running ``cProfile`` profiler off and
  fails to restore it, so the benches run without it; two of them then
  fail on ``benchmark.stats is None``, but only after their workload ran.

A run that fails is reported and the census goes on: it counts reach,
not passes. Profiling slows every run several times over.

It prints, per file, each ``def`` no process entered and its length in
lines, the totals (lines counted once where definitions nest), and how
many dumps it could not read. A function counts as reached when any
process entered it, even if it never returned.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SITE = Path(__file__).resolve().parent / "census_site"
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")
#: Output lines shown for a run that fails.
FAILURE_TAIL = 5
CLI_RUNS = (["info"], ["bringup"], ["convergence"], ["arp-load"], ["flows"],
            ["--seed", "7", "verify", "all"])


def planned_runs(tree: Path) -> list[tuple[str, list[str]]]:
    """``(label, argv)`` of every run, relative to the tree's root."""
    py = sys.executable
    runs = [(f"example {path.stem}", [py, f"examples/{path.name}"])
            for path in sorted((tree / "examples").glob("*.py"))]
    runs.append(("ledger --smoke", [py, "ledger/run.py", "--smoke"]))
    runs += [("cli " + " ".join(argv), [py, "-m", "repro.cli", *argv])
             for argv in CLI_RUNS]
    runs.append(("benchmarks", [py, "-m", "pytest", "benchmarks",
                                "--benchmark-disable", "-p", "no:cacheprovider"]))
    return runs


def defined_functions(src: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """``{(file, first line): (qualified name, last line)}`` of every
    ``def`` under ``src``. The first line is the first decorator's, as
    in the function's code object."""
    found = {}

    def visit(node, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(file, first)] = (prefix + child.name, child.end_lineno)
                visit(child, file, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, prefix + child.name + ".")
            else:
                visit(child, file, prefix)

    for path in sorted(src.rglob("*.py")):
        file = path.relative_to(src).as_posix()
        visit(ast.parse(path.read_text(), str(path)), file, "")
    return found


def read_dumps(dumps: Path) -> tuple[set[tuple[str, int]], int, int]:
    """The union of every dump's reached functions, the number of dumps
    read and the number that could not be."""
    reached: set[tuple[str, int]] = set()
    read = unreadable = 0
    for path in sorted(dumps.glob("*.json")):
        try:
            rows = json.loads(path.read_text())
        except ValueError:
            unreadable += 1
            continue
        reached.update((file, line) for file, line in rows)
        read += 1
    return reached, read, unreadable + len(list(dumps.glob("*.part")))


def report(functions, reached) -> None:
    by_file: dict[str, list[tuple[int, str, int]]] = {}
    for (file, first), (name, last) in functions.items():
        if (file, first) not in reached:
            by_file.setdefault(file, []).append((first, name, last))
    total_functions = total_lines = 0
    for file in sorted(by_file):
        rows = sorted(by_file[file])
        lines: set[int] = set()
        for first, _name, last in rows:
            lines.update(range(first, last + 1))
        print(f"src/{file}  ({len(rows)} functions, {len(lines)} lines)")
        for first, name, last in rows:
            print(f"    {name}  {last - first + 1}")
        total_functions += len(rows)
        total_lines += len(lines)
    print(f"\nunreached: {total_functions} of {len(functions)} functions, "
          f"{total_lines} lines")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout to census (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        tree = Path(scratch) / "tree"
        site = Path(scratch) / "site"
        dumps = Path(scratch) / "dumps"
        shutil.copytree(args.tree.resolve(), tree, ignore=COPY_IGNORE)
        shutil.copytree(SITE, site, ignore=COPY_IGNORE)
        (site / "census.json").write_text(
            json.dumps([str(tree / "src"), str(dumps)]))
        dumps.mkdir()
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(site)])}
        for label, command in planned_runs(tree):
            started = time.perf_counter()
            done = subprocess.run(command, cwd=tree, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT)
            print(f"{label:32s} exit {done.returncode}  "
                  f"{time.perf_counter() - started:6.1f} s", flush=True)
            if done.returncode:
                for line in done.stdout.splitlines()[-FAILURE_TAIL:]:
                    print(f"    | {line}")
        reached, read, unreadable = read_dumps(dumps)
        print()
        report(defined_functions(tree / "src"), reached)
        print(f"dumps: {read} read, {unreadable} unreadable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
