# Convenience targets for the PortLand reproduction.

.PHONY: install test bench ledger ledger-smoke ledger-test ledger-driver ledger-pairs verify-pairs hop-profile census bench-hybrid bench-topo bench-parallel bench-fm bench-policy examples loc verify verify-all verify-topo test-topo all

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

# A claimed gain, measured as the judge does: ten alternating
# parent/change pairs of one workload on seed 31 and again on seed 97,
# e.g. `make ledger-pairs PARENT=HEAD~1 WORKLOAD=frame_shuffle_k8
# METRIC=run_s` (~2 min per second of run). Fails if anything simulated
# differs between the two sides.
ledger-pairs:
	python3 benchmarks/ledger_pairs.py --parent $(PARENT) \
		--workload $(WORKLOAD) --metric $(METRIC)

# Where a ledger workload's run phase spends its function calls: self
# time and calls per module, the top functions, calls per event and per
# frame (cProfile; the counts repeat exactly, the seconds only rank).
# `make hop-profile WORKLOAD=fault_storm_k8 SEED=97`; SMOKE=1 for k=4.
hop-profile:
	python3 benchmarks/hop_profile.py \
		--workload $(or $(WORKLOAD),frame_shuffle_k8) \
		--seed $(or $(SEED),31) $(if $(SMOKE),--smoke)

# Reach census: every def under src/ that no example, ledger smoke run,
# CLI subcommand, verify lane or bench enters, per file, with line
# counts (benchmarks/census.py; about 20 min, in a temporary copy).
census:
	python3 benchmarks/census.py

# Hybrid fluid+frame acceptance: k=16 fluid background sea under a
# frame TCP foreground with mid-window faults; writes BENCH_hybrid.json
# (docs/FLOWS.md, hybrid section).
bench-hybrid:
	PYTHONPATH=src pytest benchmarks/bench_hybrid.py --benchmark-only -q

# The invariant fault campaign (docs/VERIFY.md) at its fixed seed. The
# lanes are the rows of LANES in src/repro/verify/campaign.py:
# `make verify-<lane>` runs one (e.g. `make verify-fm`), `make verify`
# the default row, `make verify-all` every row (~4 min).
VERIFY = PYTHONPATH=src python -m repro.cli --seed 7 verify

verify:
	$(VERIFY)

verify-all:
	$(VERIFY) all

# The cross-fabric conformance gate, one lane per topology backend
# (docs/TOPOLOGIES.md).
verify-topo:
	$(VERIFY) default topo-jellyfish topo-twolayer

# Every lane of the working tree against PARENT's, line by line, both
# at --seed 7: `make verify-pairs PARENT=HEAD~1` (~5 min). Fails if any
# lane's output differs; a change that claims to leave the simulation
# alone claims exactly this.
verify-pairs:
	python3 benchmarks/verify_pairs.py --parent $(PARENT)

verify-%:
	$(VERIFY) $*

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

# Fabric-manager control-plane benches (Figs. 14/15 extended to the
# sharded FM): batching and shard-utilization gates; writes BENCH_fm.json.
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
