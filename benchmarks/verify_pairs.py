"""Compare the invariant campaign's lanes between a revision and the
working tree, line by line.

``make verify-pairs PARENT=<rev>``: export ``<rev>`` with ``git
archive`` and copy the working tree (without ``.git``) into a temporary
directory, run ``python -m repro.cli --seed 7 verify all`` in both at
once, split each output on its ``== lane NAME`` headers and print, per
lane, whether the two sides printed the same bytes — and where they did
not, the first line that differs. Exits 1 if a lane both sides ran
differs, or a lane of ``<rev>`` is missing from the working tree; 0 if
every lane of ``<rev>`` is byte-identical. A lane only the working tree
has is listed apart as new and not compared: a change may add a lane. A
change that claims to leave the simulation alone is claiming exactly
this.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from ledger_driver import LEFT_BEHIND, ROOT

SEED = 7
#: Generous: ``verify all`` takes about four minutes on one core.
CAMPAIGN_TIMEOUT_S = 1800


def lanes(output: str) -> dict[str, list[str]]:
    """Lane name -> the lines printed under its ``== lane`` header."""
    split: dict[str, list[str]] = {}
    current = None
    for line in output.splitlines():
        if line.startswith("== lane "):
            current = split.setdefault(line[len("== lane "):].strip(), [])
        elif current is not None:
            current.append(line)
    return split


def first_difference(parent: list[str], change: list[str]) -> str:
    for number, (a, b) in enumerate(zip(parent, change), start=1):
        if a != b:
            return f"line {number}:\n    parent: {a}\n    change: {b}"
    shorter = "change" if len(change) < len(parent) else "parent"
    return (f"{shorter} side stops after line {min(len(parent), len(change))}"
            f" of {max(len(parent), len(change))}")


def compare(parent: dict[str, list[str]],
            change: dict[str, list[str]]) -> tuple[list[str], int]:
    """The report on two sides' :func:`lanes`, and the exit status."""
    report = []
    differ = 0
    for name, lines in parent.items():
        if name not in change:
            differ += 1
            report.append(f"  {name:<16} MISSING on the change side")
        elif lines == change[name]:
            report.append(f"  {name:<16} identical ({len(lines)} lines)")
        else:
            differ += 1
            report.append(f"  {name:<16} DIFFERENT at "
                          f"{first_difference(lines, change[name])}")
    for name in change:
        if name not in parent:
            report.append(f"  {name:<16} new, not compared "
                          f"({len(change[name])} lines)")
    if differ or not parent:
        report.append(f"\nverify-pairs: {differ} of {len(parent)} lanes "
                      "differ")
        return report, 1
    report.append("\nverify-pairs: every lane identical")
    return report, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree with")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="verify-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        sides["parent"].mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.parent],
            capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(sides["parent"])],
                       input=archive.stdout, check=True)
        shutil.copytree(ROOT, sides["change"], ignore=LEFT_BEHIND)
        print(f"verify-pairs: {args.parent} against the working tree, "
              f"verify all at --seed {SEED}", flush=True)
        # Both sides at once, each writing to a file (a pipe left unread
        # while the other side is awaited would stall it).
        runs = {}
        for side, checkout in sides.items():
            with open(Path(tmp) / f"{side}.out", "w") as out:
                runs[side] = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "--seed", str(SEED),
                     "verify", "all"],
                    cwd=checkout, env={**os.environ, "PYTHONPATH": "src",
                                       "PYTHONHASHSEED": "0"},
                    stdout=out, stderr=subprocess.STDOUT, text=True)
        outputs = {}
        for side, run in runs.items():
            run.wait(timeout=CAMPAIGN_TIMEOUT_S)
            printed = (Path(tmp) / f"{side}.out").read_text()
            outputs[side] = lanes(printed)
            print(f"  {side}: exit {run.returncode}, "
                  f"{len(outputs[side])} lanes")
            if not outputs[side]:
                print(printed[-2000:])

    report, status = compare(outputs["parent"], outputs["change"])
    print("\n".join(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
