"""The fluid engine's coupled stress case: every segment a constraint.

``make coupled-fluid [SEED=<n>]``: run ``fluid_shuffle_k8``'s workload
(``ledger/workloads.py``) with :class:`repro.flows.flow.ResolvedPath`
patched so that every segment of every path constrains the
water-filling, not only a compiled path's ingress host link. That is
the model the fabric needs once the ingress-only shortcut goes
(docs/FLOWS.md, "Deliberate approximations"): one recompute then
water-fills hundreds of coupled flows, so it times the allocator and
the refill under coupling. It prints the run phase's host seconds, the
events it executed, ``flows_refilled`` and ``recomputes``, the
workload's simulated metrics and a hash of the simulated part.

Measurement only: nothing under ``src/`` knows the patch, and no
configuration field, CLI argument or environment variable turns it on.
Two checkouts compare by running this file from each; the hash must
agree, the seconds are wall seconds of this process (one run, no
calibration: compare runs made back to back on one machine).
"""

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "fluid_shuffle_k8"


def constrain_every_segment() -> None:
    """Make every segment of every resolved path a shared constraint."""
    from repro.flows.flow import ResolvedPath

    init = ResolvedPath.__init__

    def __init__(self, segments, entries, hop_records, compiled) -> None:
        init(self, segments, entries, hop_records, compiled)
        self.constrained = (True,) * len(segments)
        self.con_ids = self.seg_ids

    ResolvedPath.__init__ = __init__


def run(seed: int) -> dict:
    from repro.sim import Simulator
    from repro.topology.builder import build_portland_fabric
    from workloads import QUIET_TAIL_S, WORKLOADS

    workload = WORKLOADS[WORKLOAD]
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(sim, k=workload.k, config=workload.config,
                                   link_params=workload.link_params())
    fabric.bring_up()
    events = sim.events_executed
    started = perf_counter()
    outcome = workload.run(fabric, random.Random(seed))
    sim.run(until=sim.now + QUIET_TAIL_S)
    run_s = perf_counter() - started
    stats = fabric.flow_engine.stats()
    simulated = {
        "events": sim.events_executed - events,
        "flows_refilled": stats["flows_refilled"],
        "recomputes": stats["recomputes"],
        "bottleneck_events": stats["bottleneck_events"],
        "ops_failed": outcome.ops_failed,
        "sim": outcome.sim,
    }
    digest = hashlib.sha256(json.dumps(simulated, sort_keys=True)
                            .encode()).hexdigest()[:16]
    return {"run_s": run_s, **simulated, "digest": digest,
            "problems": outcome.problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=31)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "ledger")]
    constrain_every_segment()
    result = run(args.seed)
    print(f"{WORKLOAD}, every segment constrained, seed {args.seed}")
    print(f"  run_s              {result['run_s']:.3f} s (host)")
    for key in ("events", "flows_refilled", "recomputes",
                "bottleneck_events", "ops_failed"):
        print(f"  {key:<18} {result[key]}")
    for key, value in sorted(result["sim"].items()):
        print(f"  {key:<18} {value:.7g}")
    print(f"  digest             {result['digest']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
