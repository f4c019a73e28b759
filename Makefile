# Convenience targets for the PortLand reproduction.

.PHONY: install test bench ledger ledger-smoke ledger-test ledger-driver bench-kernel bench-smoke bench-flows bench-flows-smoke bench-hybrid bench-hybrid-smoke bench-topo bench-parallel bench-fm bench-policy examples loc verify verify-flows verify-hybrid verify-topo verify-parallel verify-fm verify-policy test-topo all

install:
	pip install -e .

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not slow"

bench:
	pytest benchmarks/ --benchmark-only

# The performance ledger (BENCHMARK.json, ledger/README.md): four
# workloads end to end, whole-run and per-layer numbers, about 90 s.
ledger:
	python ledger/run.py

# The same on k=4 sizes, under 30 s.
ledger-smoke:
	python ledger/run.py --smoke

# The ledger's own tests (outside tier-1's testpaths).
ledger-test:
	PYTHONPATH=src python -m pytest ledger -q

# The benchmark contract's exact form, from a copy of the working tree
# without .git, fresh seed, all four workloads, --trace 0 and 1 (~5 min).
# Run before submitting a PR; paste its summary into the description.
ledger-driver:
	python3 benchmarks/ledger_driver.py

# Simulator-substrate benchmarks (event kernel, flow table, decision
# cache); writes BENCH_sim_kernel.json (common schema, see
# repro.metrics.benchout).
bench-kernel:
	PYTHONPATH=src pytest benchmarks/bench_sim_kernel.py --benchmark-only

# Reduced-iteration fast-path ratio gate (no JSON artifact). Also part
# of the plain tier-1 test run, since it lives under tests/.
bench-smoke:
	PYTHONPATH=src pytest tests/test_bench_smoke.py -q

# Flow-level (fluid) engine acceptance: k=8 shuffle in both execution
# modes + k=4 agreement numbers; writes BENCH_flows.json (docs/FLOWS.md).
bench-flows:
	PYTHONPATH=src pytest benchmarks/bench_flows.py --benchmark-only -q

# Reduced-scale flow-mode agreement/event gates (tier-1 cousin).
bench-flows-smoke:
	PYTHONPATH=src pytest tests/test_flows_smoke.py -q

# Hybrid fluid+frame acceptance: k=16 fluid background sea under a
# frame TCP foreground with mid-window faults; writes BENCH_hybrid.json
# (docs/FLOWS.md, hybrid section).
bench-hybrid:
	PYTHONPATH=src pytest benchmarks/bench_hybrid.py --benchmark-only -q

# Reduced-scale hybrid coupling gates (tier-1 cousin).
bench-hybrid-smoke:
	PYTHONPATH=src pytest tests/test_hybrid_smoke.py -q

# Fixed-seed invariant fault campaign (see docs/VERIFY.md).
verify:
	PYTHONPATH=src python -m repro.cli --seed 7 verify --scenarios 25

# The same campaign over the fluid engine: the oracle checks every
# resolved flow path instead of per-frame hops (docs/FLOWS.md).
verify-flows:
	PYTHONPATH=src python -m repro.cli --seed 7 verify --scenarios 25 --flow-mode

# The campaign in hybrid fluid+frame mode: probe pairs alternate
# between fluid flows and frame UDP streams on capacity-coupled links,
# so the oracle checks frame hops and fluid paths in the same scenario.
verify-hybrid:
	PYTHONPATH=src python -m repro.cli --seed 7 verify --scenarios 25 --hybrid

# The same 25-scenario campaign on every topology backend — the
# cross-fabric conformance gate (docs/TOPOLOGIES.md).
verify-topo:
	for b in fattree jellyfish twolayer; do \
		echo "== backend $$b"; \
		PYTHONPATH=src python -m repro.cli --seed 7 verify \
			--scenarios 25 --backend $$b || exit 1; \
	done

# Full cross-fabric conformance matrix (tier-1 runs only its smoke rows).
test-topo:
	PYTHONPATH=src pytest tests/conformance tests/topology -q -m ""

# Cross-backend diversity/completion smoke (ratio-logged, not gated);
# writes BENCH_topo.json.
bench-topo:
	PYTHONPATH=src pytest benchmarks/bench_topologies.py --benchmark-only -q

# Sharded parallel kernel: k=16 all-to-all, sharded vs single-process,
# determinism asserted then speedup/overhead gated; writes
# BENCH_parallel.json (docs/PERF.md).
bench-parallel:
	PYTHONPATH=src pytest benchmarks/bench_parallel.py --benchmark-only -q

# The fixed-seed campaign sharded over 4 worker processes — results are
# identical to `make verify`, only wall time changes.
verify-parallel:
	PYTHONPATH=src python -m repro.cli --seed 7 verify --scenarios 25 --parallel 4

# Sharded fabric manager under fire: the 25-scenario campaign with a
# 4-way FM shard cluster, batched + incremental override pushes, and
# fm-restart / fm-partition steps mixed into the op schedule
# (docs/PROTOCOLS.md, fabric-manager section). The second lane repeats
# at k=8 under host churn: a background ARP storm plus a
# migration-weighted op mix stress soft-state refresh and the shard
# registry at scale.
verify-fm:
	PYTHONPATH=src python -m repro.cli --seed 7 verify --scenarios 25 \
		--fm-shards 4 --fm-ops --fm-batch 0.02 --fm-incremental
	PYTHONPATH=src python -m repro.cli --seed 7 verify --scenarios 5 \
		--k 8 --fm-shards 4 --fm-ops --fm-batch 0.02 --fm-incremental \
		--churn

# The 25-scenario campaign with acl-install/acl-revoke steps mixed in:
# the oracle additionally checks that every drop on an ACL'd pair is
# justified, that no frame leaks across an installed ACL, and that
# strict-priority ports never let bulk bytes ahead of priority frames
# (docs/POLICY.md).
verify-policy:
	PYTHONPATH=src python -m repro.cli --seed 7 verify --scenarios 25 \
		--policy

# Fabric-manager control-plane benches (Figs. 14/15 extended to the
# sharded FM): batching/incremental gates; writes BENCH_fm.json.
bench-fm:
	PYTHONPATH=src pytest benchmarks/bench_fig14_fm_control_traffic.py \
		benchmarks/bench_fig15_fm_cpu.py --benchmark-only -q

# QoS headline: k=8 incast, strict-priority vs FIFO queues — gates a
# >=2x mice p99 one-way-latency win for priority queueing and writes
# BENCH_policy.json (docs/POLICY.md).
bench-policy:
	PYTHONPATH=src pytest benchmarks/bench_policy.py --benchmark-only -q

# Source size, for negative-line-count claims: total lines under src/
# and the five largest files.
loc:
	@find src -name '*.py' | xargs cat | wc -l
	@find src -name '*.py' | xargs wc -l | sort -rn | sed -n '2,6p'

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f || exit 1; done

all: install test bench
