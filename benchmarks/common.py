"""Shared helpers for the benchmark harnesses.

Each benchmark regenerates one table or figure of the PortLand paper:
it runs the experiment inside ``benchmark.pedantic`` (so
``pytest benchmarks/ --benchmark-only`` times one full run), prints the
same rows/series the paper reports, and asserts the *shape* of the
result (who wins, by roughly what factor) rather than absolute numbers.
"""

from __future__ import annotations

from repro import LinkParams, Simulator, build_portland_fabric
from repro.metrics.benchout import (  # noqa: F401  (re-exported for benches)
    bench_payload,
    validate_bench_payload,
    write_bench_json,
)
from repro.topology.builder import PortlandFabric


def converged_portland(seed: int, k: int = 4, carrier: bool = False,
                       tree=None, config=None, link_params=None,
                       timeout_s: float = 5.0) -> PortlandFabric:
    """A fully discovered + registered PortLand fabric.

    ``link_params`` overrides the default ``LinkParams`` wholesale (and
    then ``carrier`` is ignored) — used by arms that vary a physical
    knob like ``priority_queues``.
    """
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=k, config=config,
        link_params=link_params or LinkParams(carrier_detect=carrier),
        tree=tree)
    fabric.bring_up(timeout_s=timeout_s)
    return fabric


def run_once(benchmark, fn):
    """Execute ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def update_bench_fm(section: str, data: dict,
                    headline: dict | None = None) -> None:
    """Merge one bench's contribution into ``BENCH_fm.json``.

    Figs. 14 and 15 both feed the fabric-manager artifact and may run in
    either order (or alone): read whatever is committed, replace this
    bench's section, and rewrite the headline fields (ratio/events/
    wall_s/config) only when this caller owns them — fig14's batching
    message reduction is the headline ratio.
    """
    import json
    from pathlib import Path

    path = Path(__file__).parent.parent / "BENCH_fm.json"
    try:
        payload = json.loads(path.read_text())
        validate_bench_payload(payload)
    except (OSError, ValueError):
        payload = bench_payload("fm", ratio=1.0, events=0, wall_s=0.0,
                                config={})
    payload[section] = data
    if headline:
        payload.update(headline)
    write_bench_json("fm", payload)


def save_results(name: str, payload: dict) -> None:
    """Persist a bench's data as ``results/<name>.json``.

    The printed tables are for humans; this is the machine-readable copy
    (plotting scripts, regression tracking). Best-effort: an unwritable
    directory must never fail a benchmark.
    """
    import json
    from pathlib import Path

    try:
        out_dir = Path(__file__).parent.parent / "results"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    except OSError:
        pass
