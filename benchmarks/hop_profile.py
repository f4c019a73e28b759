"""Where a ledger workload's set-up and run phase spend their calls.

``make hop-profile WORKLOAD=<w>`` (default ``frame_shuffle_k8``; add
``SEED=<n>``, ``SMOKE=1`` for the k=4 size): build the workload's fabric
and bring it up exactly as ``ledger/worker.py`` does, then run its run
phase, each of the two under ``cProfile``. For each it prints, per
module under ``src/repro``, self time and calls, the twenty functions
with the most self time, calls per executed event and per transmitted
frame, the calls of the watched functions (the ones bring-up work is
counted in, the ones every frame hop and TCP segment runs, and the
fabric manager's override derivation) with their calls per transmitted
frame, per TCP segment built and per override recompute, and the
garbage collector's collections and seconds per generation (from
``gc.callbacks``). The call counts repeat exactly for a seed; the
seconds are profiler seconds (every Python call taxed, C calls not) and
only rank candidates — a gain is measured with ``make ledger-pairs``.
Reads ``ledger/workloads.py``, changes nothing there.
"""

import argparse
import cProfile
import gc
import pstats
import random
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TOP_FUNCTIONS = 20
#: Functions whose call counts size the work, each named by its
#: function or by the end of ``<module>.<function>`` (``link.send`` is
#: ``Port.send``). Bring-up: level classification (``data_ports``
#: called from ``_classify`` is one full evaluation of the port rules),
#: stream refusal (``serialization_time`` called from ``_open_stream``
#: is one that reached the arrival arithmetic), table derivation
#: (``_usable_up_ports`` is one uplink-map rebuild), per-port LDM frames
#: (``copy``, ``payload_length``, ``other_end``), the fabric manager's
#: override runs (``pod`` is ``FabricView.pod``). The frame path: the
#: ECMP hash (``_hash_and_proto``; ``_crc_hash`` is one CRC build), the
#: edge rewrites' copies (``ethernet.copy``), the link hop
#: (``link.send``, ``link.transmit``, ``_start_transmission``), sizes
#: (``wire_length``, ``payload_length``) and TCP segments
#: (``tcp_wire.__init__``, one per segment built). The fault path: one
#: override recompute (``faults.update``, ``OverrideComputer.update``),
#: its per-destination rows (``_edge_overrides``, ``_agg_overrides``),
#: the per-sender derivation (``avoid_for``; ``_avoid_for_edge`` and
#: ``_avoid_for_agg`` where a sender is walked link by link) and the
#: view's link tests (``alive``, ``adjacent``).
WATCHED = ("_classify", "data_ports", "_open_stream",
           "serialization_time", "_refresh_entries", "_restate_down",
           "_usable_up_ports", "down_to_position", "down_to_pod",
           "default_up", "sync", "copy", "payload_length", "other_end",
           "faults.update", "_recompute_affected", "_edge_overrides",
           "_agg_overrides", "avoid_for", "_avoid_for_edge",
           "_avoid_for_agg", "topology_view.alive",
           "topology_view.adjacent", "pod", "_hash_and_proto",
           "_crc_hash", "link.send", "link.transmit",
           "_start_transmission", "wire_length", "tcp_wire.__init__")
#: The watched function one call of which is one TCP segment.
SEGMENT = "tcp_wire.__init__"
#: The watched function one call of which is one override recompute.
RECOMPUTE = "faults.update"


def watched_as(module: str, function: str) -> str | None:
    """The ``WATCHED`` entry a function of ``module`` is counted under."""
    qualified = f"{module}.{function}"
    for entry in WATCHED:
        if qualified.endswith("." + entry):
            return entry
    return None


class GcMeter:
    """Collections and seconds per generation, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] += 1
        self.seconds[generation] += perf_counter() - self._started

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def profile_phases(name: str, seed: int, smoke: bool):
    """``(phase, pstats, events executed, frames transmitted, GcMeter)``
    for the set-up (build and bring-up, as the ledger's ``setup_s``) and
    the run phase."""
    from repro.sim import Simulator
    from repro.topology.builder import build_portland_fabric
    from workloads import QUIET_TAIL_S, WORKLOADS

    workload = WORKLOADS[name].sized(smoke)
    profiler = cProfile.Profile()
    with GcMeter() as setup_gc:
        profiler.enable()
        sim = Simulator(seed=seed)
        fabric = build_portland_fabric(sim, k=workload.k,
                                       config=workload.config,
                                       link_params=workload.link_params())
        fabric.bring_up()
        profiler.disable()
    nodes = [*fabric.switches.values(), *fabric.hosts.values(),
             fabric.fabric_manager]

    def frames_tx() -> int:
        return sum(port.counters.tx_frames
                   for node in nodes for port in node.ports)

    events, frames = sim.events_executed, frames_tx()
    phases = [("set-up", pstats.Stats(profiler), events, frames, setup_gc)]
    profiler = cProfile.Profile()
    with GcMeter() as run_gc:
        profiler.enable()
        workload.run(fabric, random.Random(seed))
        sim.run(until=sim.now + QUIET_TAIL_S)
        profiler.disable()
    phases.append(("run", pstats.Stats(profiler),
                   sim.events_executed - events, frames_tx() - frames,
                   run_gc))
    return phases


def module_of(filename: str) -> str:
    """``repro.net.link`` for a file under src/, else a coarse bucket."""
    marker = "/src/repro/"
    if marker in filename:
        return "repro." + filename.split(marker, 1)[1][:-3].replace("/", ".")
    return "(builtins)" if filename == "~" else "(other)"


def report(phase: str, stats, events: int, frames: int,
           collector: GcMeter) -> None:
    print(f"== {phase}")
    by_module = defaultdict(lambda: [0.0, 0])
    functions = []
    watched = []
    total_calls = 0
    for (filename, line, function), (_, calls, self_s, _, callers) in (
            stats.stats.items()):
        module = module_of(filename)
        by_module[module][0] += self_s
        by_module[module][1] += calls
        total_calls += calls
        functions.append((self_s, calls, f"{module}:{line} {function}"))
        entry = watched_as(module, function)
        if entry is not None and module.startswith("repro."):
            by_caller = sorted(((n, caller[2]) for caller, (_, n, _, _)
                                in callers.items()), reverse=True)
            watched.append((entry, function, module, calls, by_caller[:3]))
    print(f"{'module':<36} {'self_s':>8} {'calls':>10} {'calls/event':>12}")
    for module, (self_s, calls) in sorted(by_module.items(),
                                          key=lambda item: -item[1][0]):
        print(f"{module:<36} {self_s:8.3f} {calls:10d} "
              f"{calls / events:12.2f}")
    print(f"\ntop {TOP_FUNCTIONS} functions by self time")
    for self_s, calls, label in sorted(functions, reverse=True)[:TOP_FUNCTIONS]:
        print(f"  {self_s:7.3f} s {calls:9d}  {label}")
    segments = sum(row[3] for row in watched if row[0] == SEGMENT)
    recomputes = sum(row[3] for row in watched if row[0] == RECOMPUTE)
    if watched:
        print(f"\ncalls of the watched functions, per transmitted frame, "
              f"per TCP segment ({segments} built) and per override "
              f"recompute ({recomputes} run), top callers")

    def per(calls: int, unit: int) -> str:
        return f"{calls / unit:9.2f}" if unit else "        -"

    for entry, function, module, calls, by_caller in sorted(
            watched, key=lambda row: (WATCHED.index(row[0]), row[2])):
        callers = ", ".join(f"{caller} {n}" for n, caller in by_caller)
        print(f"  {calls:9d} {calls / frames:7.2f}{per(calls, segments)}"
              f"{per(calls, recomputes)}  {module}.{function}  ({callers})")
    print("\ngarbage collector: " + ", ".join(
        f"gen{generation} {collector.collections[generation]} "
        f"({collector.seconds[generation]:.3f} s)" for generation in range(3)))
    print(f"\n{events} events, {frames} frames transmitted, "
          f"{total_calls} calls: {total_calls / events:.1f} per event, "
          f"{total_calls / frames:.1f} per frame\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="frame_shuffle_k8")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "ledger")]
    for phase in profile_phases(args.workload, args.seed, args.smoke):
        report(*phase)
    return 0


if __name__ == "__main__":
    sys.exit(main())
