# Local targets mirror the CI jobs (.github/workflows/ci.yml) so a
# green `make ci` means a green pipeline.

GO ?= go

.PHONY: build test fuzz race perf perf-compare bench guards fmt fmt-check vet lint staticcheck govulncheck ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fuzz, 10 s per target, each from its committed seed corpus
# (<package>/testdata/fuzz). The shard-dump reader: any input is
# rejected with an error or decodes to a dump that re-encodes to the
# same bytes, in memory proportional to the input. The coflow-benchmark trace
# parser: any input is rejected with an error or parses to a trace that
# Write + Parse round-trip. A CoFlow's pending/done summary: after any
# interleaving of its writers — progress, completions, availability
# flips and restarts — every accessor equals a full scan of its flows,
# and a CoFlow re-admitted on the storage a retired one left
# (coflow.Spares) equals a fresh one.
# Max-min filling: on any demands, caps and pre-drawn fabric, the rates
# equal a round-by-round walk over every demand bit for bit. In-process
# agents: under any churn script — registrations, IDs registered again
# after their CoFlow retired, agents detached (they go on stepping and
# reporting) and fresh ones attached to the detached ports (an attached
# port refuses a second agent), flow indices reused across agents —
# the agents that keep their flows in the shared slot table list, in
# the same order, the same flows as map-keyed reference agents that
# keep their own, every owned entry is listed once by its owner, every
# flow is ordered under the registration and at the size the
# coordinator ordered, no flow has more bytes sent than its port moves
# since its CoFlow was registered, no two live CoFlows share a flow, and
# the coordinators agree on every result. Aalo's
# fill: on any CoFlows over any queues,
# withheld and done flows, and any pre-drawn fabric (closed egresses,
# residuals a hair from eps), the rates and the fabric left behind equal
# the sort-and-walk-every-flow reference bit for bit. Saath's admission
# and work conservation: on any CoFlows — reducer-major, mapper-major or
# scattered, with finished and withheld flows — and any pre-drawn fabric
# (closed ports, residuals at exactly 1e-3 and a hair either side), the
# signature admission and the run-skipping walk grant what the flow scan
# and the walk that asks every flow grant, rates, residuals and rated
# list bit for bit.
# Saath's contention index: under any script of arrivals, departures,
# completions, holds, CoFlows replaced under their index, departures
# and arrivals with no Sync between, and port ranges that grow mid-run,
# every k_c equals the map-based reference after every Sync.
# A simulator workspace: any pair of small jobs — random traces, DAG
# gates, policies, Dynamics, Pipelining, horizons that end a run with
# CoFlows live — run one after the other on one workspace returns, each,
# the result, error, telemetry export and dense indices of a run on a
# fresh workspace.
# Minimising each new input is capped at 1 s (the default, 60 s, would
# eat the whole budget on the first one).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadShard$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/study/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzProgressSummary$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/coflow/
	$(GO) test -run '^$$' -fuzz '^FuzzMaxMinFair$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fabric/
	$(GO) test -run '^$$' -fuzz '^FuzzInprocAgents$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/runtime/
	$(GO) test -run '^$$' -fuzz '^FuzzAaloFill$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sched/aalo/
	$(GO) test -run '^$$' -fuzz '^FuzzWorkConserve$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzContentionIndex$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzWorkspaceReuse$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim/

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

# The deterministic cost guards, all layers in one run (they need a
# non-race build — alloc counts skip themselves under -race): the one
# table of allocation guards against BENCH_baseline.json plus the
# rated-flows counter guard (bench_guards_test.go), the engine's, the
# telemetry path's (the engine's probe emission and the Suite's Observe),
# the latency histogram's and a CoFlow's completion path's steady-state
# zero-alloc guards, and the grid-key uniqueness pin the seed-derivation
# contract rests on. They are what holds the hot path allocation-free:
# saath-vet has no allocation rule. Allocation counts, plus three byte
# totals: a dense replay's, which holds the dense tables' growth rule, a
# sparse replay's, which holds the reuse of retired CoFlows' flow
# storage, and a thousand-agent testbed job's, which holds the
# coordinator's one order buffer and the agents' shared slot table;
# timings belong to `make perf`.
guards:
	$(GO) test -count=1 -run 'Guards$$|ZeroAlloc$$|^TestEpochCostsRatedFlows$$|^TestGridJobKeyUniqueness$$' . ./internal/sim/ ./internal/sweep/ ./internal/obs/ ./internal/telemetry/ ./internal/coflow/

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# saath-vet is the project's own analyzer suite (detcheck, hotpath —
# see internal/lint): only the rules whose defect no test can see, a
# map range whose order can reach study bytes and a map access on the
# hot path. Built as a `go vet -vettool`, it must report zero
# unsuppressed findings over the whole tree; any new finding fails the
# build. The analyzer unit tests ride along so broken fixtures fail
# here too.
lint:
	$(GO) build -o bin/saath-vet ./cmd/saath-vet
	$(GO) vet -vettool=$(CURDIR)/bin/saath-vet ./...
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

ci: fmt-check build vet lint staticcheck govulncheck race fuzz bench guards
