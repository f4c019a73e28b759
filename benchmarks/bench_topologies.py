"""Cross-backend smoke: path diversity and workload completion.

Builds each topology backend (fat tree, Jellyfish, generated two-level
fat tree) at the comparable k=4 scale, converges it through the one
shared pipeline, and compares:

* **path diversity** — mean shortest-path (ECMP) count and mean
  8-shortest simple-path count over all edge pairs, straight from the
  scheme's :meth:`enumerate_paths` oracle. This is the number Jellyfish
  was designed to win (random graphs trade structure for diversity).
* **completion time** — a fluid permutation shuffle over every host,
  same bytes per flow everywhere.

Ratios are *logged, not gated*: the backends deliberately differ in
host count and bisection, so the assertion is only that every backend
converges, finishes the shuffle, and offers at least one path per pair.
"""

from common import (bench_payload, print_header, run_once, save_results,
                    write_bench_json)

from repro import LinkParams, Simulator, build_portland_fabric
from repro.metrics.tables import format_table
from repro.portland.config import PortlandConfig
from repro.topology.scheme import BACKEND_NAMES, scheme_for_backend
from repro.workloads.shuffle import FluidShuffleWorkload
from repro.workloads.traffic import random_permutation_pairs

K = 4
BYTES_PER_FLOW = 250_000
PATH_LIMIT = 8


def converged_backend(backend: str, seed: int):
    sim = Simulator(seed=seed)
    scheme = scheme_for_backend(backend, k=K)
    config = PortlandConfig(flow_mode=True)
    fabric = build_portland_fabric(
        sim, k=K, config=config, scheme=scheme,
        link_params=LinkParams(carrier_detect=True))
    located, _registered = fabric.bring_up()
    return fabric, located


def diversity(fabric) -> tuple[float, float]:
    """Mean (ECMP paths, 8-shortest simple paths) over all edge pairs."""
    scheme = fabric.scheme
    edges = fabric.tree.edge_names
    ecmp_counts, ksp_counts = [], []
    for src in edges:
        for dst in edges:
            if src == dst:
                continue
            ecmp_counts.append(len(scheme.enumerate_paths(src, dst)))
            ksp_counts.append(len(scheme.enumerate_paths(
                src, dst, limit=PATH_LIMIT)))
    pairs = max(1, len(ecmp_counts))
    return sum(ecmp_counts) / pairs, sum(ksp_counts) / pairs


def run_backend(backend: str) -> dict:
    fabric, located = converged_backend(backend, seed=701)
    sim = fabric.sim
    ecmp, ksp = diversity(fabric)
    pairs = random_permutation_pairs(fabric.host_list(),
                                     sim.random.stream("bench-topo"))
    shuffle = FluidShuffleWorkload(fabric, pairs=pairs,
                                   bytes_per_flow=BYTES_PER_FLOW)
    shuffle.start()
    done_at = shuffle.run_until_done(timeout_s=30.0)
    elapsed = done_at - shuffle.started_at
    return {
        "backend": backend,
        "switches": len(fabric.switches),
        "hosts": len(fabric.hosts),
        "located_ms": located * 1000,
        "ecmp_paths": ecmp,
        "ksp_paths": ksp,
        "shuffle_ms": elapsed * 1000,
        "events": sim.events_executed,
    }


def test_topology_backends(benchmark):
    rows = run_once(benchmark, lambda: [run_backend(b) for b in BACKEND_NAMES])

    print_header("topology backends: diversity + fluid shuffle (k=4 scale)")
    base = rows[0]
    print(format_table(
        ["backend", "switches", "hosts", "bring-up",
         "mean ECMP paths", f"mean {PATH_LIMIT}-shortest", "shuffle",
         "shuffle vs fattree"],
        [[r["backend"], r["switches"], r["hosts"],
          f"{r['located_ms']:.0f} ms",
          f"{r['ecmp_paths']:.2f}", f"{r['ksp_paths']:.2f}",
          f"{r['shuffle_ms']:.2f} ms",
          f"{r['shuffle_ms'] / base['shuffle_ms']:.2f}x"]
         for r in rows],
        title="one routing abstraction, three fabrics",
    ))
    save_results("bench_topologies", {"k": K, "bytes": BYTES_PER_FLOW,
                                      "backends": rows})
    write_bench_json("topo", bench_payload(
        "topo",
        # Headline: the fat tree's mean ECMP path diversity (paths per
        # edge pair vs a single-path fabric) — the multipath factor the
        # other backends are compared against in the printed table.
        ratio=base["ecmp_paths"],
        events=sum(r["events"] for r in rows),
        wall_s=benchmark.stats.stats.total,
        config={"k": K, "bytes_per_flow": BYTES_PER_FLOW,
                "path_limit": PATH_LIMIT,
                "backends": list(BACKEND_NAMES)},
        backends=rows))

    # Shape only: everything converged, finished, and is multipath-capable.
    for r in rows:
        assert r["shuffle_ms"] > 0
        assert r["ecmp_paths"] >= 1
        assert r["ksp_paths"] >= r["ecmp_paths"] - 1e-9
