"""Where the run phase of a ledger workload spends its function calls.

``make hop-profile WORKLOAD=<w>`` (default ``frame_shuffle_k8``; add
``SEED=<n>``, ``SMOKE=1`` for the k=4 size): build the workload's fabric
and bring it up exactly as ``ledger/worker.py`` does, then run only its
run phase under ``cProfile`` and print, per module under ``src/repro``,
self time and calls, the twenty functions with the most self time, and
calls per executed event and per transmitted frame. The call counts
repeat exactly for a seed; the seconds are profiler seconds (every
Python call taxed, C calls not) and only rank candidates — a gain is
measured with ``make ledger-pairs``. Reads ``ledger/workloads.py``,
changes nothing there.
"""

import argparse
import cProfile
import pstats
import random
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP_FUNCTIONS = 20


def profile_run_phase(name: str, seed: int, smoke: bool):
    """(pstats of the run phase, events executed, frames transmitted)."""
    from repro.sim import Simulator
    from repro.topology.builder import build_portland_fabric
    from workloads import QUIET_TAIL_S, WORKLOADS

    workload = WORKLOADS[name].sized(smoke)
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(sim, k=workload.k, config=workload.config,
                                   link_params=workload.link_params())
    fabric.bring_up()
    nodes = [*fabric.switches.values(), *fabric.hosts.values(),
             fabric.fabric_manager]

    def frames_tx() -> int:
        return sum(port.counters.tx_frames
                   for node in nodes for port in node.ports)

    events, frames = sim.events_executed, frames_tx()
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(fabric, random.Random(seed))
    sim.run(until=sim.now + QUIET_TAIL_S)
    profiler.disable()
    return (pstats.Stats(profiler), sim.events_executed - events,
            frames_tx() - frames)


def module_of(filename: str) -> str:
    """``repro.net.link`` for a file under src/, else a coarse bucket."""
    marker = "/src/repro/"
    if marker in filename:
        return "repro." + filename.split(marker, 1)[1][:-3].replace("/", ".")
    return "(builtins)" if filename == "~" else "(other)"


def report(stats, events: int, frames: int) -> None:
    by_module = defaultdict(lambda: [0.0, 0])
    functions = []
    total_calls = 0
    for (filename, line, function), (_, calls, self_s, _, _) in (
            stats.stats.items()):
        module = module_of(filename)
        by_module[module][0] += self_s
        by_module[module][1] += calls
        total_calls += calls
        functions.append((self_s, calls, f"{module}:{line} {function}"))
    print(f"{'module':<36} {'self_s':>8} {'calls':>10} {'calls/event':>12}")
    for module, (self_s, calls) in sorted(by_module.items(),
                                          key=lambda item: -item[1][0]):
        print(f"{module:<36} {self_s:8.3f} {calls:10d} "
              f"{calls / events:12.2f}")
    print(f"\ntop {TOP_FUNCTIONS} functions by self time")
    for self_s, calls, label in sorted(functions, reverse=True)[:TOP_FUNCTIONS]:
        print(f"  {self_s:7.3f} s {calls:9d}  {label}")
    print(f"\n{events} events, {frames} frames transmitted, "
          f"{total_calls} calls: {total_calls / events:.1f} per event, "
          f"{total_calls / frames:.1f} per frame")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="frame_shuffle_k8")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "ledger")]
    report(*profile_run_phase(args.workload, args.seed, args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
