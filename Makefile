PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench-e2e-smoke bench bench-scale bench-scale-smoke bench-quotes bench-quotes-smoke lint lint-canary obs-demo trace-smoke

## Tier-1 test suite (also runs the benchmark script's smoke mode, see
## tests/experiments/test_parallel_harness.py).
test:
	$(PYTHON) -m pytest -x -q

## Seconds-fast benchmark pass on a tiny city — CI wiring for the full bench.
## bench_solvers asserts every BLS repeat lands on identical regret and move
## counts, that parallel restarts equal serial, and — via the flag — that
## batched warm-pool parallel restarts actually beat serial.  The speedup gate assumes a multi-core
## runner (GitHub Actions); on a single-CPU box the bench skips the gate
## with a stderr note instead of asserting a speedup the hardware cannot
## produce.
bench-smoke:
	$(PYTHON) scripts/bench_coverage.py --smoke --output /tmp/BENCH_coverage_smoke.json
	$(PYTHON) scripts/bench_solvers.py --smoke --output /tmp/BENCH_solvers_smoke.json \
		--assert-parallel-speedup 1.2

## The end-to-end benchmark's self-test at toy sizes (perfbench/, declared
## by BENCHMARK.json): every workload runs untraced and traced, checks its
## plans, and prints every declared metric.
bench-e2e-smoke:
	$(PYTHON) -m pytest perfbench -q

## Full benchmarks; append a run to BENCH_coverage.json / BENCH_solvers.json
## at the root and fail when any timing regresses >15% against the best
## recorded run of the same scenario.
bench:
	$(PYTHON) scripts/bench_coverage.py --output BENCH_coverage.json --gate-regression
	$(PYTHON) scripts/bench_solvers.py --output BENCH_solvers.json --gate-regression

## Paper-scale sweep (10^4 -> 2*10^6 streamed trajectories): storage tiers,
## bit-identity, and one greedy+BLS cell under a 512 MB bitmap budget.  Appends to BENCH_scale.json; takes minutes at full scale.
bench-scale:
	$(PYTHON) scripts/bench_scale.py --output BENCH_scale.json

## The 10^4 tier only — seconds-fast CI wiring for the scale sweep.
bench-scale-smoke:
	$(PYTHON) scripts/bench_scale.py --smoke --output /tmp/BENCH_scale_smoke.json

## Quote-throughput benchmark: the journaled incremental pricing path vs the
## from-scratch path over a deep standing book, bit-identity asserted on every
## overlapping quote.  Appends to BENCH_quotes.json, gates timing regressions
## >15%, and fails below a 10x incremental speedup (DESIGN.md §15).
bench-quotes:
	$(PYTHON) scripts/bench_quotes.py --output BENCH_quotes.json \
		--assert-speedup 10 --gate-regression

## Seconds-fast quotes pass on a tiny city — CI wiring for the full bench.
## No speedup floor: the smoke book is too shallow for the O(book) / O(delta)
## asymmetry to show a stable multiple.
bench-quotes-smoke:
	$(PYTHON) scripts/bench_quotes.py --smoke --output /tmp/BENCH_quotes_smoke.json

## Static checks, all stdlib-only (the container ships no third-party
## linter): bytecode compilation, the repro invariant linter (DESIGN.md §14),
## and the generated README env-knob table staying in sync with repro.env.
lint:
	$(PYTHON) -m compileall -q src tests scripts examples
	$(PYTHON) -m repro.cli lint
	$(PYTHON) scripts/gen_env_docs.py --check

## Prove each shipped lint rule fires on an injected violation and that the
## suppression + baseline escape hatches round-trip (the CI canary step).
lint-canary:
	$(PYTHON) scripts/lint_canary.py

## Small instrumented sweep: two workers, a shared coverage cache, the JSONL
## run log, and the end-of-run summary table (see README "Inspecting a run").
OBS_DEMO_DIR ?= /tmp/mroam-obs-demo
obs-demo:
	mkdir -p $(OBS_DEMO_DIR)
	## Warm the on-disk coverage cache at the default λ=100 (uninstrumented),
	## so the instrumented sweep below records both cache hits and misses.
	REPRO_COVERAGE_CACHE=$(OBS_DEMO_DIR)/coverage-cache \
	$(PYTHON) -m repro.cli cell \
		--billboards 60 --trajectories 400 --p-avg 0.1 --seed 2 \
		--methods g-global --restarts 0 > /dev/null
	REPRO_COVERAGE_CACHE=$(OBS_DEMO_DIR)/coverage-cache \
	$(PYTHON) -m repro.cli sweep \
		--billboards 60 --trajectories 400 --p-avg 0.1 --seed 2 \
		--parameter lambda_m --methods g-global,bls --restarts 1 --workers 2 \
		--obs-out $(OBS_DEMO_DIR)/run.jsonl --obs-summary
	@echo "run log: $(OBS_DEMO_DIR)/run.jsonl"

## Tracing + ledger end-to-end: the solver bench in smoke mode with a Chrome
## trace and a run ledger, the trace schema-validated (clock-aligned,
## >=2 worker pids), and the bottleneck report rendered from both artifacts.
TRACE_DIR ?= /tmp/mroam-trace-smoke
trace-smoke:
	mkdir -p $(TRACE_DIR)
	$(PYTHON) scripts/bench_solvers.py --smoke \
		--output $(TRACE_DIR)/BENCH_solvers_trace.json \
		--trace-out $(TRACE_DIR)/trace.json \
		--ledger $(TRACE_DIR)/ledger.jsonl
	$(PYTHON) scripts/obs_report.py --validate $(TRACE_DIR)/trace.json
	$(PYTHON) scripts/obs_report.py $(TRACE_DIR)/ledger.jsonl
	@echo "trace: $(TRACE_DIR)/trace.json"
