package saath

// The allocation and counter guards of every layer, in one table over
// one schema. BENCH_baseline.json records, per layer and operation,
// the allocations one steady-state run of it made when the layer
// landed — or, for a row that guards bytes, the bytes it allocated;
// each row below re-measures its operation and fails past the row's
// multiple of that record. Counts and byte totals are deterministic,
// so they may gate tier-1; timings never do — they belong to
// `go run ./bench`. `make guards` runs these plus the in-package
// zero-alloc guards.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// baseline is one operation's record: allocations per run, or bytes
// allocated per run. A row guards whichever its operation records.
type baseline struct {
	AllocsPerOp *float64 `json:"allocs_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
}

// loadBaseline reads BENCH_baseline.json: layer → operation → record.
// The file's prose fields ("recorded", "workload", ...) are not
// sections and are skipped.
func loadBaseline(t *testing.T) map[string]map[string]baseline {
	t.Helper()
	raw, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	base := map[string]map[string]baseline{}
	for layer, field := range fields {
		var ops map[string]baseline
		if json.Unmarshal(field, &ops) == nil {
			base[layer] = ops
		}
	}
	return base
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average number of
// bytes f allocates per call, after one warm-up call, on one P so no
// other goroutine's allocations land in the window.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// allocGuard is one row: the operation a layer's cost contract is
// about, and how far from the recorded count it may drift.
type allocGuard struct {
	test      string // the Test function that runs the row
	layer, op string // BENCH_baseline.json section and entry
	runs      int
	// factor is the allowed multiple of the record: 1.25 for drift
	// (which is exactly zero where the record is zero), 0 where the
	// contract is no allocation at all whatever the record says.
	factor float64
	build  func(tb testing.TB) func() // warms up, returns the measured step
}

func allocGuards() []allocGuard {
	step := func(f func()) func(testing.TB) func() { return func(testing.TB) func() { return f } }
	guards := []allocGuard{
		{"TestSweepAllocGuards", "sweep_layer", "grid_jobs_24", 100, 1.25, func(tb testing.TB) func() {
			g := benchSweepGrid()
			return func() {
				if jobs := g.Jobs(); len(jobs) != 24 {
					tb.Fatalf("jobs = %d", len(jobs))
				}
			}
		}},
		{"TestSweepAllocGuards", "sweep_layer", "summary_add", 100, 1.25, func(tb testing.TB) func() {
			jr, sum := benchJobResult(tb), sweep.NewSummary()
			sum.Add(jr) // warm the entry map
			return func() { sum.Add(jr) }
		}},
		// Rendering every Summary table over the bench grid with telemetry
		// on: the cost of the one cell grouping the tables fold.
		{"TestSweepAllocGuards", "sweep_layer", "summary_tables", 20, 1.25, benchSummaryTables},
		{"TestEngineLayerGuards", "engine_layer", "event_sparse", 1, 1.25, func(tb testing.TB) func() {
			tr := sparseTailTrace()
			return func() {
				if _, err := Simulate(tr, "saath", SimConfig{}); err != nil {
					tb.Fatal(err)
				}
			}
		}},
		// The bytes a dense replay allocates: tables keyed by flow and
		// CoFlow index grow through coflow.Grow, doubling, where growing
		// them an element at a time costs several times their final size.
		{"TestEngineLayerGuards", "engine_layer", "replay_dense", 1, 1.10, func(tb testing.TB) func() {
			tr := denseBurstTrace()
			return func() {
				if _, err := Simulate(tr, "saath", SimConfig{}); err != nil {
					tb.Fatal(err)
				}
			}
		}},
		// The bytes a sparse replay allocates: each retired CoFlow's flow
		// storage backs a later arrival, so with one or two CoFlows live the
		// replay allocates a few CoFlows' flows, not the trace's.
		{"TestEngineLayerGuards", "engine_layer", "replay_sparse", 1, 1.10, func(tb testing.TB) func() {
			tr := sparseLongtailTrace()
			return func() {
				if _, err := Simulate(tr, "saath", SimConfig{}); err != nil {
					tb.Fatal(err)
				}
			}
		}},
		// The bytes the same dense replay allocates on a workspace that
		// already ran it (bytesPerRun's warm-up call): the flow storage,
		// the index space, the dense tables and ledgers, the allocation
		// vector, the scratch lists and the event heap a run leaves back
		// the next run on its workspace, so what is left is mostly the
		// trace clone, the results and the scheduler. Carrying no flow
		// storage, index space free lists, flow table or allocation vector
		// fails it.
		{"TestEngineLayerGuards", "engine_layer", "replay_reused", 1, 1.10, func(tb testing.TB) func() {
			tr := denseBurstTrace()
			var ws sim.Workspace
			return func() {
				s, err := sched.New("saath", DefaultParams())
				if err != nil {
					tb.Fatal(err)
				}
				if _, err := ws.Run(tr.Clone(), s, SimConfig{}); err != nil {
					tb.Fatal(err)
				}
			}
		}},
		// The bytes one telemetry-probed replay and its export allocate
		// with the zero spec in the study-grid bench's shape: every series
		// keeps its scalars, and no ring, reservoir, RNG or progress series
		// is made unless a raw export asks for points. Ten CoFlows keep the
		// replay's own bytes to a fifth of the row, so telemetry's own bytes
		// may grow by an eighth at most: rings or reservoirs made by default
		// again for any two series fail it.
		{"TestTelemetryLayerGuards", "telemetry_layer", "replay_probed", 10, 1.10, func(tb testing.TB) func() {
			tr := sparseLongtailTrace()
			tr.Specs = tr.Specs[:10]
			return func() {
				suite := telemetry.NewSuite(TelemetrySpec{Enabled: true, QueueTransitions: true, PortHeatmap: true})
				if _, err := Simulate(tr, "saath", SimConfig{}.WithProbe(suite)); err != nil {
					tb.Fatal(err)
				}
				suite.Metrics()
			}
		}},
		{"TestObsLayerGuards", "obs_layer", "counter_step", 100, 1.25, func(testing.TB) func() {
			var c obs.EngineCounters
			i := 0
			return func() { counterStep(&c, i); i++ }
		}},
		{"TestObsLayerGuards", "obs_layer", "span_record", 100, 1.25, step(func() { recordJobSpan() })},
		{"TestTestbedLayerGuards", "testbed_layer", "agent_step", 200, 1.25, func(tb testing.TB) func() {
			coord, agents := benchTestbedCluster(tb, 64, 4)
			return func() { agents[0].Step(benchStepDelta); coord.ReportInproc(agents[:1], 0) }
		}},
		{"TestTestbedLayerGuards", "testbed_layer", "report_batch", 200, 1.25, func(tb testing.TB) func() {
			coord, agents := benchTestbedCluster(tb, 64, 4)
			return func() { coord.ReportInproc(agents, 0) }
		}},
		{"TestTestbedLayerGuards", "testbed_layer", "register_retire", 200, 1.25, func(tb testing.TB) func() {
			return benchRegisterRetire(tb)
		}},
		// The bytes one testbed job allocates on a thousand-agent cluster:
		// the coordinator's orders go out of one buffer and its agents keep
		// their flows in the one slot table they share, so the job allocates
		// with its live flows, not with its agents.
		{"TestTestbedLayerGuards", "testbed_layer", "runjob", 1, 1.10, benchRunJob},
		{"TestCoordinatorBoundaryZeroAlloc", "testbed_layer", "boundary", 200, 1.25, func(tb testing.TB) func() {
			coord, _ := benchTestbedCluster(tb, 64, 4)
			coord.StepSchedule(0) // the cluster's first round grew the buffers; this one settles the scheduler's
			return func() { coord.StepSchedule(0) }
		}},
		// One shard dump encoded and read back: the codec walks the carried
		// structs by reflection, held to the hand-written codec it
		// replaced (bench_study_test.go).
		{"TestStudyLayerGuards", "study_layer", "shard_roundtrip", 20, 1.25, benchShardRoundTrip},
		{"TestTraceAllocGuards", "trace_layer", "synth_fb", 10, 1.25, step(func() { trace.SynthFB(1) })},
		{"TestTraceAllocGuards", "trace_layer", "synth_incast", 10, 1.25, step(func() { trace.SynthIncast(1) })},
	}
	// Every policy's steady-state Schedule round allocates nothing:
	// Saath's — queue counts, buckets, contention vector, allocation
	// vector, ordering — Aalo's, UC-TCP's, Varys' (max-min filling
	// included) and LWTF's (Γ and the contention index) alike. These
	// rounds schedule afresh; the policies that hold their previous
	// decision over a boundary that changed nothing get a row for that
	// round too, and it allocates nothing either.
	for _, policy := range benchPolicies {
		guards = append(guards, allocGuard{"TestScheduleAllocGuards", "schedule_round", policy, 3, 0,
			func(tb testing.TB) func() { return benchSchedCluster(tb, policy, 500, 150) }})
	}
	for _, policy := range []string{"saath", "aalo", "uc-tcp"} {
		guards = append(guards, allocGuard{"TestScheduleAllocGuards", "schedule_round", policy + "/held", 3, 0,
			func(tb testing.TB) func() { _, held := benchSchedRounds(tb, policy, 500, 150); return held }})
	}
	return guards
}

// checkAllocGuards runs the calling test's rows of the table.
func checkAllocGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := loadBaseline(t)
	ran := 0
	for _, g := range allocGuards() {
		if g.test != t.Name() {
			continue
		}
		ran++
		b := base[g.layer][g.op]
		rec, unit, measure := b.AllocsPerOp, "allocs/op", testing.AllocsPerRun
		if b.BytesPerOp != nil {
			rec, unit, measure = b.BytesPerOp, "bytes/op", bytesPerRun
		}
		if rec == nil {
			t.Errorf("%s.%s: missing from BENCH_baseline.json", g.layer, g.op)
			continue
		}
		recorded := *rec
		got := measure(g.runs, g.build(t))
		t.Logf("%s.%s: %.0f %s (recorded %.0f)", g.layer, g.op, got, unit, recorded)
		if limit := recorded * g.factor; got > limit {
			t.Errorf("%s.%s: %.1f %s, want <= %.1f (%.2f x the recorded %.0f)", g.layer, g.op, got, unit, limit, g.factor, recorded)
		}
	}
	if ran == 0 {
		t.Fatalf("no guard row names %s", t.Name())
	}
}

func TestScheduleAllocGuards(t *testing.T)  { checkAllocGuards(t) }
func TestSweepAllocGuards(t *testing.T)     { checkAllocGuards(t) }
func TestEngineLayerGuards(t *testing.T)    { checkAllocGuards(t) }
func TestObsLayerGuards(t *testing.T)       { checkAllocGuards(t) }
func TestTelemetryLayerGuards(t *testing.T) { checkAllocGuards(t) }
func TestTestbedLayerGuards(t *testing.T)   { checkAllocGuards(t) }
func TestTraceAllocGuards(t *testing.T)     { checkAllocGuards(t) }
func TestStudyLayerGuards(t *testing.T)     { checkAllocGuards(t) }

// TestCoordinatorBoundaryZeroAlloc enforces the coordinator's side of
// the cost contract: with the live set settled, a StepSchedule — retire
// pass, Schedule over the retained snapshot, the one reused order
// buffer (Coordinator.orders, bucketed by sender), in-process delivery
// — allocates exactly nothing (the table's boundary row); and the same
// live set costs the same on a cluster with 64 times the ports, i.e. a
// boundary does not pay for idle ports.
func TestCoordinatorBoundaryZeroAlloc(t *testing.T) {
	checkAllocGuards(t)

	// The same live set — 4 coflows over ports 0..63 — on 64 and on
	// 4,096 ports: a whole boundary (the busy agents step and report, the
	// coordinator schedules and delivers) costs the same.
	boundary := func(nPorts int) float64 {
		coord, agents := benchTestbedCluster(t, nPorts, 0)
		for id := 1; id <= 4; id++ {
			spec := &Spec{ID: CoFlowID(id)}
			for p := 0; p < 64; p++ {
				spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(p), Dst: PortID((p + 1) % 64), Size: Bytes(1) << 50})
			}
			if err := coord.Register(spec, 0); err != nil {
				t.Fatal(err)
			}
		}
		step := func() {
			for _, a := range agents[:64] {
				a.Step(benchStepDelta)
			}
			coord.ReportInproc(agents[:64], 0)
			coord.StepSchedule(0)
		}
		step()
		step()
		return testing.AllocsPerRun(200, step)
	}
	if small, large := boundary(64), boundary(4096); small != large {
		t.Errorf("the same live set allocates %.1f per boundary on 64 ports but %.1f on 4096: a boundary scales with idle ports", small, large)
	}
}

// TestEpochCostsRatedFlows pins the engine's per-epoch flow passes to
// the allocation with counters, not clocks: fifty four-flow coflows
// arrive together on one port pair, so all-or-none serves one of them at
// a time and parks the other forty-nine. The observe and advance passes
// may then visit each rated flow once each, plus — on the epochs near
// the end, when the few coflows left put the rated share above the
// density choice — less than one more coflow's worth; walking the
// pending flows instead would cost 400 visits an epoch here. The same
// replay pins how many epochs are held (obs.EngineCounters.HeldEpochs).
func TestEpochCostsRatedFlows(t *testing.T) {
	const live = 50
	specs := make([]*Spec, live)
	for i := range specs {
		specs[i] = &Spec{ID: CoFlowID(i + 1), Flows: []FlowSpec{
			{Src: 0, Dst: 1, Size: MB}, {Src: 0, Dst: 1, Size: MB},
			{Src: 0, Dst: 1, Size: MB}, {Src: 0, Dst: 1, Size: MB},
		}}
	}
	c := &obs.EngineCounters{}
	res, err := Simulate(&Trace{Name: "one-in-fifty", NumPorts: 2, Specs: specs}, "saath", SimConfig{Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoFlows) != live || c.RatedFlows == 0 {
		t.Fatalf("completed %d coflows, %d rated flows", len(res.CoFlows), c.RatedFlows)
	}
	t.Logf("%d epochs: %d rated flows, %d walked, %d held", c.Epochs, c.RatedFlows, c.FlowsWalked, c.HeldEpochs)
	if bound := 2*c.RatedFlows + c.Epochs*live; c.FlowsWalked > bound {
		t.Errorf("observe+advance walked %d flows over %d epochs, want <= 2 x %d rated + %d epochs x %d coflows = %d",
			c.FlowsWalked, c.Epochs, c.RatedFlows, c.Epochs, live, bound)
	}
	// Each coflow is served alone for five epochs. The first follows a
	// departure and is scheduled, audited and planned afresh; over the
	// other four nothing but bytes moves — no flow finishes, no queue
	// threshold is near — so the policy reissues its decision and the
	// engine keeps its plan.
	if want := int64(4 * live); c.Epochs != 5*live || c.HeldEpochs != want {
		t.Errorf("%d of %d epochs held, want %d of %d", c.HeldEpochs, c.Epochs, want, 5*live)
	}
}
