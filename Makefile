# Local targets mirror the CI jobs (.github/workflows/ci.yml) so a
# green `make ci` means a green pipeline.

GO ?= go

.PHONY: build test test-fleet test-testbed fuzz race perf perf-compare bench bench-sched bench-sweep bench-telemetry bench-trace bench-engine bench-obs bench-fleet bench-testbed fmt fmt-check vet lint staticcheck govulncheck ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fleet chaos suite under -race: the driver recovers a killed, hung,
# corrupted, and slow worker (goldens assert the merged output stays
# byte-identical to a single-process run) plus terminal-failure and
# drift-rejection paths. The tests re-exec the test binary as the
# worker, so no separate build step is needed.
test-fleet:
	$(GO) test -race -count=1 -timeout 10m ./internal/fleet/

# Testbed suite under -race: the coordinator-backed study runner with
# in-process agents — byte-identity across parallelism and sharding,
# admission-drop determinism, the 10^4-agent coordinator-latency run,
# and the agent-disconnect / stalled-agent paths in internal/runtime.
# (The 10^5-agent scale test stays env-gated: SAATH_LONG=1.)
test-testbed:
	$(GO) test -race -count=1 -timeout 10m ./internal/testbed/ ./internal/runtime/

# Fuzz, 10 s per target, each from its committed seed corpus
# (<package>/testdata/fuzz). The shard-dump reader: any input is
# rejected with an error or decodes to a dump that re-encodes to the
# same bytes, in memory proportional to the input. The coordinator's
# POST /coflows path: nothing panics, malformed registrations get a 400,
# an accepted one is live exactly once. Minimising each new input is
# capped at 1 s (the default, 60 s, would eat the whole budget on the
# first one).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadShard$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/study/
	$(GO) test -run '^$$' -fuzz '^FuzzRegistrationJSON$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/runtime/

race:
	$(GO) test -race -timeout 20m ./...

# The repo benchmark (bench/, BENCHMARK.json): every workload untraced
# then traced, each in its own child process, one JSON result. This is
# the only place timings are measured; nothing here gates tier-1.
perf:
	$(GO) run ./bench -out bench-result.json

# Compare two results of `make perf` (say the parent commit's and this
# change's, taken on the same box in the same hour):
#   make perf-compare A=bench-result-parent.json B=bench-result.json
perf-compare:
	$(GO) run ./bench -compare $(A) $(B)

# One iteration of every benchmark: a smoke test that the bench
# harness still compiles and runs, not a performance measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' -timeout 20m ./...

# Scheduler hot-path smoke: one iteration of the per-policy Schedule
# benchmarks plus the allocation-regression guards against
# BENCH_baseline.json (the guards need a non-race build — they skip
# under -race; the engine's steady-state zero-alloc guard rides on
# bench-engine).
bench-sched:
	$(GO) test -bench 'BenchmarkSchedule' -benchtime=1x -benchmem -run '^$$' -timeout 10m .
	$(GO) test -run TestScheduleAllocGuards -count=1 .

# Sweep-layer smoke: one iteration of the grid-expansion / summary
# digest / pool benchmarks plus the allocation guard against the
# sweep_layer section of BENCH_baseline.json and the grid-key
# uniqueness pin (the guard needs a non-race build — it skips under
# -race).
bench-sweep:
	$(GO) test -bench 'BenchmarkSweep' -benchtime=1x -benchmem -run '^$$' -timeout 10m . ./internal/sweep/
	$(GO) test -run TestSweepAllocGuards -count=1 .
	$(GO) test -run TestGridJobKeyUniqueness -count=1 ./internal/sweep/

# Telemetry smoke: one iteration of the telemetry benchmarks plus the
# zero-allocation guard on the engine's no-probe emission path (the
# guard needs a non-race build — AllocsPerRun skips itself under -race).
bench-telemetry:
	$(GO) test -bench Telemetry -benchtime=1x -run '^$$' -timeout 10m ./...
	$(GO) test -run TestObserveIntervalNoProbesZeroAlloc -count=1 ./internal/sim/

# Trace-layer smoke: one iteration of the synthetic-generation and
# trace.Mix benchmarks plus the allocation guard against the
# trace_layer section of BENCH_baseline.json (skips under -race).
bench-trace:
	$(GO) test -bench 'BenchmarkTrace' -benchtime=1x -benchmem -run '^$$' -timeout 10m .
	$(GO) test -run TestTraceAllocGuards -count=1 .

# Engine-layer smoke: one iteration of the sparse long-tail benchmark
# plus the alloc guard against the engine_layer section of
# BENCH_baseline.json, the counter guard that an epoch's flow passes
# follow the flows holding a rate, and the run loop's steady-state
# zero-alloc guard (the alloc guards skip under -race).
bench-engine:
	$(GO) test -bench 'BenchmarkEngineEventSparse' -benchtime=1x -benchmem -run '^$$' -timeout 10m .
	$(GO) test -run 'TestEngineLayerGuards|TestEpochCostsRatedFlows' -count=1 .
	$(GO) test -run TestEngineEventSteadyStateZeroAlloc -count=1 ./internal/sim/

# Observability smoke: one iteration of the span-record / counter-step
# benchmarks plus the guard against the obs_layer section of
# BENCH_baseline.json (the engine counter step must allocate exactly
# nothing) and the engine's counters-attached zero-alloc guard (all
# skip under -race).
bench-obs:
	$(GO) test -bench 'BenchmarkObs' -benchtime=1x -benchmem -run '^$$' -timeout 10m .
	$(GO) test -run TestObsLayerGuards -count=1 .
	$(GO) test -run TestEngineEventCountersZeroAlloc -count=1 ./internal/sim/

# Fleet wire smoke: one iteration of the wire encode/decode benchmarks
# plus the guard against the fleet_layer section of BENCH_baseline.json
# (encode must allocate exactly nothing at steady state; skips under
# -race).
bench-fleet:
	$(GO) test -bench 'BenchmarkFleetWire' -benchtime=1x -benchmem -run '^$$' -timeout 10m .
	$(GO) test -run TestFleetLayerGuards -count=1 .

# Testbed smoke: one iteration of the agent-step and whole-boundary
# benchmarks plus the guards against the testbed_layer section of
# BENCH_baseline.json (one steady-state Step+Report, and one
# steady-state coordinator boundary on any cluster size, must allocate
# exactly nothing; both skip under -race).
bench-testbed:
	$(GO) test -bench 'BenchmarkTestbed' -benchtime=1x -benchmem -run '^$$' -timeout 10m .
	$(GO) test -run 'TestTestbedLayerGuards|TestCoordinatorBoundaryZeroAlloc' -count=1 .

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# saath-vet is the project's own analyzer suite (detcheck, hotpath,
# obscheck — see internal/lint). It must report zero unsuppressed
# findings over the whole tree; any new finding fails the build. The
# analyzer unit tests ride along so broken fixtures fail here too.
lint:
	$(GO) run ./cmd/saath-vet ./...
	$(GO) test -count=1 ./internal/lint/

# staticcheck runs when the binary is installed and skips (with a
# note) when it is not, so `make ci` stays runnable on minimal
# machines; the CI pipeline always installs and runs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# govulncheck, like staticcheck, is best-effort locally (skip when the
# binary is absent) and mandatory in the pipeline, which installs a
# pinned version and invokes the binary directly.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

ci: fmt-check build vet lint staticcheck govulncheck race test-fleet test-testbed fuzz bench bench-sched bench-sweep bench-telemetry bench-trace bench-engine bench-obs bench-fleet bench-testbed
