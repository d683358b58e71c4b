package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/trace"

	_ "saath/internal/core"       // register saath
	_ "saath/internal/sched/aalo" // register aalo
)

// tinySource is a small synthetic workload so a full grid runs in
// well under a second even with -race.
func tinySource(name string) TraceSource {
	return SynthSource(name, func(seed int64) *trace.Trace {
		return trace.Synthesize(trace.SynthConfig{
			Seed: seed, NumPorts: 10, NumCoFlows: 16,
			MeanInterArrival: 20 * coflow.Millisecond,
			SingleFlowFrac:   0.25, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
			SmallFracNarrow: 0.8, SmallFracWide: 0.5,
			MinSmall: 100 * coflow.KB, MaxSmall: coflow.MB,
			MinLarge: coflow.MB, MaxLarge: 20 * coflow.MB,
		}, name)
	})
}

// testGrid is the 24-job determinism grid: 2 traces × 2 variants ×
// 3 seeds × 2 schedulers.
func testGrid() Grid {
	fast := sched.DefaultParams()
	slowDelta := sim.Config{Delta: 16 * coflow.Millisecond}
	return Grid{
		Traces:     []TraceSource{tinySource("tiny-a"), tinySource("tiny-b")},
		Schedulers: []string{"aalo", "saath"},
		Seeds:      []int64{1, 2, 3},
		Variants: []Variant{
			{Name: "delta=8ms", Params: fast, Config: sim.Config{Delta: 8 * coflow.Millisecond}},
			{Name: "delta=16ms", Params: fast, Config: slowDelta},
		},
	}
}

func TestGridExpansion(t *testing.T) {
	g := testGrid()
	jobs := g.Jobs()
	if len(jobs) != 24 {
		t.Fatalf("got %d jobs, want 24", len(jobs))
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has index %d", i, j.Index)
		}
		if j.Gen == nil {
			t.Fatalf("job %d has no generator", i)
		}
	}
	// Expansion order is trace-major, then variant, seed, scheduler.
	if jobs[0].Key() != "tiny-a|delta=8ms|1|aalo" {
		t.Errorf("first key = %q", jobs[0].Key())
	}
	if jobs[23].Key() != "tiny-b|delta=16ms|3|saath" {
		t.Errorf("last key = %q", jobs[23].Key())
	}

	// Defaults: no seeds/variants collapses to one of each.
	def := Grid{Traces: []TraceSource{tinySource("t")}, Schedulers: []string{"saath"}, Params: sched.DefaultParams()}
	if got := len(def.Jobs()); got != 1 {
		t.Fatalf("default grid: %d jobs, want 1", got)
	}
}

// TestGridJobKeyUniqueness pins the DeriveSeed salting contract (see
// the package doc): Key() must be unique across a full grid expansion
// — traces × param variants × seeds × schedulers, including a
// variant-scoped scheduler restriction — because every derived RNG
// stream (dynamics, pipelining, telemetry) is salted with it.
func TestGridJobKeyUniqueness(t *testing.T) {
	g := testGrid()
	g.Variants = append(g.Variants, Variant{Name: "saath-only", Schedulers: []string{"saath"}})
	jobs := g.Jobs()
	// 2 traces × (2 variants × 3 seeds × 2 scheds + 1 restricted
	// variant × 3 seeds × 1 sched).
	if want := 30; len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	seen := make(map[string]int, len(jobs))
	for _, j := range jobs {
		if prev, dup := seen[j.Key()]; dup {
			t.Fatalf("jobs %d and %d share key %q", prev, j.Index, j.Key())
		}
		seen[j.Key()] = j.Index
	}
	// Distinct keys must yield distinct streams for every derived-seed
	// consumer — and the consumers of one job must not collide with
	// each other either.
	streams := make(map[int64]string, 3*len(jobs))
	for _, j := range jobs {
		for _, salt := range []string{"|dynamics", "|pipelining", "|telemetry"} {
			s := DeriveSeed(j.Seed, j.Key()+salt)
			if prev, dup := streams[s]; dup {
				t.Fatalf("derived seed collision between %q and %q", prev, j.Key()+salt)
			}
			streams[s] = j.Key() + salt
		}
	}
}

// runSummary executes the grid at the given parallelism and returns
// the JSON export plus rendered aggregate tables.
func runSummary(t *testing.T, jobs []Job, parallel int) (string, string) {
	t.Helper()
	sum := NewSummary()
	res := Run(context.Background(), jobs, Options{Parallel: parallel, Collectors: []Collector{sum}})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := sum.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var tables strings.Builder
	if err := sum.CCTTable("cct").Render(&tables); err != nil {
		t.Fatal(err)
	}
	if err := sum.SpeedupTable("speedup", "aalo").Render(&tables); err != nil {
		t.Fatal(err)
	}
	return js.String(), tables.String()
}

// TestDeterminismAcrossParallelism is the engine's core contract: a
// ≥24-job grid aggregated with 8 workers is byte-identical to the
// same grid on 1 worker.
func TestDeterminismAcrossParallelism(t *testing.T) {
	jobs := testGrid().Jobs()
	js1, tb1 := runSummary(t, jobs, 1)
	js8, tb8 := runSummary(t, jobs, 8)
	if js1 != js8 {
		t.Errorf("JSON differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", js1, js8)
	}
	if tb1 != tb8 {
		t.Errorf("tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", tb1, tb8)
	}
	if !strings.Contains(js1, `"trace": "tiny-a"`) {
		t.Errorf("JSON missing trace field:\n%s", js1)
	}
}

// TestPartialFailure checks that one erroring job does not poison the
// sweep: the other jobs complete and aggregate normally.
// TestJobElapsedReachesCaller pins runJob's named result: the wall time
// it stamps in a defer must be what Run stores and what the progress
// callback sees, so a ProgressMeter anchors its rate clock at the first
// job's start instead of at its completion.
func TestJobElapsedReachesCaller(t *testing.T) {
	jobs := testGrid().Jobs()[:4]
	var buf bytes.Buffer
	m := NewProgressMeter(&buf, 0, jobs)
	var first time.Time // the meter's clock reading at the first completion
	m.now = func() time.Time {
		now := time.Now()
		if first.IsZero() {
			first = now
		}
		return now
	}
	var seen []time.Duration
	res := Run(context.Background(), jobs, Options{Parallel: 1, Progress: func(done, total int, jr JobResult) {
		seen = append(seen, jr.Elapsed)
		m.Progress(done, total, jr)
	}})
	for i, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if jr.Elapsed <= 0 {
			t.Errorf("job %d: stored Elapsed = %v, want > 0", i, jr.Elapsed)
		}
		if seen[i] != jr.Elapsed {
			t.Errorf("job %d: progress saw Elapsed %v, result holds %v", i, seen[i], jr.Elapsed)
		}
	}
	if want := first.Add(-res.Jobs[0].Elapsed); !m.start.Equal(want) || !m.start.Before(first) {
		t.Errorf("meter start = %v, want the first completion (%v) back-dated by its %v run time",
			m.start, first, res.Jobs[0].Elapsed)
	}
}

func TestPartialFailure(t *testing.T) {
	g := testGrid()
	g.Schedulers = []string{"aalo", "saath", "no-such-scheduler"}
	jobs := g.Jobs()
	sum := NewSummary()
	res := Run(context.Background(), jobs, Options{Parallel: 4, Collectors: []Collector{sum}})
	failed := res.Failed()
	if len(failed) != 12 { // 2 traces × 2 variants × 3 seeds
		t.Fatalf("%d failed jobs, want 12", len(failed))
	}
	for _, jr := range failed {
		if jr.Job.Scheduler != "no-such-scheduler" {
			t.Fatalf("unexpected failure: %v", jr.Err)
		}
	}
	if got := res.Completed(); got != 24 {
		t.Fatalf("%d completed, want 24", got)
	}
	// Aggregates only contain the successful cells; errors are
	// reported in the JSON digest.
	tbl := sum.CCTTable("cct")
	for _, row := range tbl.Rows {
		if row[1] == "no-such-scheduler" {
			t.Fatal("failed scheduler leaked into aggregate table")
		}
	}
	var js bytes.Buffer
	if err := sum.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "no-such-scheduler") {
		t.Error("JSON digest should record failed jobs")
	}
}

// TestCancellation cancels mid-sweep: in-flight jobs finish, undispatched
// jobs are marked with the context error, and Run does not deadlock.
func TestCancellation(t *testing.T) {
	jobs := testGrid().Jobs()
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res := Run(ctx, jobs, Options{
		Parallel: 2,
		Progress: func(done, total int, jr JobResult) {
			once.Do(cancel)
		},
	})
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("result has %d slots, want %d", len(res.Jobs), len(jobs))
	}
	failed := res.Failed()
	if len(failed) == 0 {
		t.Fatal("cancellation produced no skipped jobs")
	}
	for _, jr := range failed {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Fatalf("skipped job error = %v, want context.Canceled", jr.Err)
		}
	}
	if res.Completed() == 0 {
		t.Fatal("no job completed before cancellation")
	}
	if res.Completed()+len(failed) != len(jobs) {
		t.Fatalf("completed %d + failed %d != %d", res.Completed(), len(failed), len(jobs))
	}
}

// midRunPanic is Saath until the first boundary with three CoFlows
// live, where it panics the way a scheduler bug would: the run stops
// with flows indexed, the audit's ledgers drawn and CoFlows holding flow
// storage.
type midRunPanic struct{ sched.Scheduler }

func (p midRunPanic) Schedule(snap *sched.Snapshot) *sched.RateVec {
	if len(snap.Active) >= 3 {
		panic("sweep-test-panic: scheduler bug")
	}
	return p.Scheduler.Schedule(snap)
}

// oversubscriber hands every flow of every live CoFlow the full line
// rate, which the engine's audit rejects naming the lowest
// oversubscribed port.
type oversubscriber struct{ sched.Scheduler }

func (oversubscriber) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := snap.Allocation()
	for _, c := range snap.Active {
		for _, f := range c.Flows {
			alloc.Set(f.Idx, snap.Fabric.PortRate())
		}
	}
	return alloc
}

func init() {
	sched.Register("sweep-test-panic", func(p sched.Params) (sched.Scheduler, error) {
		inner, err := sched.New("saath", p)
		return midRunPanic{inner}, err
	})
	sched.Register("sweep-test-oversubscribe", func(p sched.Params) (sched.Scheduler, error) {
		inner, err := sched.New("saath", p)
		return oversubscriber{inner}, err
	})
}

// TestPanicLeavesWorkerFresh: on one worker, the jobs after one whose
// policy panicked mid-run return what a fresh sim.Run returns — the
// audit right after it fails on the port a fresh run's does, though the
// panic left that port's ledger drawn — and so do the jobs before it,
// which run on the storage the job before each left. Every CoFlow of
// the trace sends from port 0, so every audit draws its ledger and the
// oversubscriber's first audit fails there.
func TestPanicLeavesWorkerFresh(t *testing.T) {
	fanOut := &trace.Trace{Name: "fan-out", NumPorts: 8}
	for i := range 12 {
		fanOut.Specs = append(fanOut.Specs, &coflow.Spec{
			ID: coflow.CoFlowID(i + 1), Arrival: coflow.Time(i) * 2 * coflow.Millisecond,
			Flows: []coflow.FlowSpec{{Src: 0, Dst: coflow.PortID(1 + i%7), Size: 5 * coflow.MB}},
		})
	}
	g := Grid{
		Traces:     []TraceSource{FixedTrace(fanOut)},
		Schedulers: []string{"saath", "aalo", "sweep-test-panic", "sweep-test-oversubscribe", "saath"},
		Params:     sched.DefaultParams(),
	}
	res := Run(context.Background(), g.Jobs(), Options{Parallel: 1})
	for i, jr := range res.Jobs {
		if jr.Job.Scheduler == "sweep-test-panic" {
			if jr.Err == nil || !strings.Contains(jr.Err.Error(), "sweep-test-panic: scheduler bug") {
				t.Fatalf("job %d: error %v, want the policy's panic", i, jr.Err)
			}
			continue
		}
		s, err := sched.New(jr.Job.Scheduler, jr.Job.Params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(jr.Job.Gen(), s, jr.Job.Config)
		if err != nil {
			err = fmt.Errorf("sweep: job %s: %w", jr.Job.Key(), err)
		}
		if fmt.Sprint(jr.Err) != fmt.Sprint(err) {
			t.Errorf("job %d (%s): error %v, a fresh sim.Run's %v", i, jr.Job.Scheduler, jr.Err, err)
		}
		if !reflect.DeepEqual(jr.Res, want) {
			t.Errorf("job %d (%s): result differs from a fresh sim.Run's", i, jr.Job.Scheduler)
		}
	}
}

// TestDynamicsSeedDerivation: zero dynamics seeds are derived from the
// job identity, so distinct grid seeds give distinct noise but the
// same job is always reproducible.
func TestDynamicsSeedDerivation(t *testing.T) {
	g := testGrid()
	g.Variants = nil
	g.Params = sched.DefaultParams()
	g.Config = sim.Config{Dynamics: &sim.Dynamics{StragglerProb: 0.3, Slowdown: 4}}
	g.Traces = g.Traces[:1]
	g.Schedulers = []string{"saath"}
	jobs := g.Jobs()
	run1 := Run(context.Background(), jobs, Options{Parallel: 2})
	run2 := Run(context.Background(), jobs, Options{Parallel: 1})
	if err := run1.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a, b := run1.Jobs[i].Res, run2.Jobs[i].Res
		if a.AvgCCT() != b.AvgCCT() {
			t.Fatalf("job %d not reproducible: %v vs %v", i, a.AvgCCT(), b.AvgCCT())
		}
	}
	// The caller's explicit seed is respected.
	if s := DeriveSeed(1, "x"); s == 0 {
		t.Fatal("derived seed is zero")
	}
	if DeriveSeed(1, "x") != DeriveSeed(1, "x") {
		t.Fatal("DeriveSeed not stable")
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") || DeriveSeed(1, "x") == DeriveSeed(1, "y") {
		t.Fatal("DeriveSeed collisions across base/salt")
	}
}

// TestBindGenPrivateTraceCopy pins the Variant.Mutate aliasing
// contract: a mutating variant always operates on a private per-job
// trace copy, even when a misbehaving TraceSource.Gen returns a shared
// instance. The shared base must stay untouched and repeated
// generations must not compound the mutation.
func TestBindGenPrivateTraceCopy(t *testing.T) {
	shared := tinySource("shared").Gen(1)
	wantArrivals := make([]coflow.Time, len(shared.Specs))
	for i, s := range shared.Specs {
		wantArrivals[i] = s.Arrival
	}
	badSource := TraceSource{Name: "shared", Gen: func(int64) *trace.Trace { return shared }}

	scale := Variant{Name: "A=2", Mutate: func(tr *trace.Trace) { tr.ScaleArrivals(0.5) }}
	reseed := Variant{Name: "regen", MutateSeeded: func(tr *trace.Trace, seed int64) {
		*tr = *tinySource("shared").Gen(seed + 100)
	}}

	genScale := bindGen(badSource, scale, 1)
	genReseed := bindGen(badSource, reseed, 1)

	first := genScale()
	if first == shared {
		t.Fatal("mutating variant returned the shared trace instance")
	}
	second := genScale()
	for i := range shared.Specs {
		if shared.Specs[i].Arrival != wantArrivals[i] {
			t.Fatalf("shared base trace mutated at coflow %d", i)
		}
		if first.Specs[i].Arrival != wantArrivals[i]/2 {
			t.Fatalf("variant mutation missing on job copy at coflow %d", i)
		}
		if second.Specs[i].Arrival != first.Specs[i].Arrival {
			t.Fatalf("repeated generation compounded the mutation at coflow %d", i)
		}
	}

	// MutateSeeded sees the grid seed and its regeneration is likewise
	// private.
	re := genReseed()
	if re == shared {
		t.Fatal("seeded-mutating variant returned the shared trace instance")
	}
	for i := range shared.Specs {
		if shared.Specs[i].Arrival != wantArrivals[i] {
			t.Fatalf("shared base trace mutated by MutateSeeded at coflow %d", i)
		}
	}

	// A variant with no mutation hands the source's trace through
	// unchanged (no gratuitous clone on the common path).
	if got := bindGen(badSource, Variant{Name: "plain"}, 1)(); got != shared {
		t.Fatal("non-mutating variant cloned the source trace")
	}
}

// TestMutatingVariantsNoCrossJobLeak runs mutating variants over one
// shared trace instance at parallelism > 1, twice: results must be
// reproducible (a mutation leaking into a sibling job's trace would
// perturb the rerun) and the two variants must actually diverge.
func TestMutatingVariantsNoCrossJobLeak(t *testing.T) {
	shared := tinySource("shared").Gen(1)
	g := Grid{
		Traces:     []TraceSource{{Name: "shared", Gen: func(int64) *trace.Trace { return shared }}},
		Schedulers: []string{"saath"},
		Seeds:      []int64{1, 2, 3},
		Variants: []Variant{
			{Name: "A=1", Params: sched.DefaultParams()},
			{Name: "A=4", Params: sched.DefaultParams(), Mutate: func(tr *trace.Trace) { tr.ScaleArrivals(0.25) }},
		},
	}
	run1 := Run(context.Background(), g.Jobs(), Options{Parallel: 4})
	run2 := Run(context.Background(), g.Jobs(), Options{Parallel: 4})
	if err := run1.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var makespan [2]coflow.Time
	for i := range run1.Jobs {
		a, b := run1.Jobs[i], run2.Jobs[i]
		if a.Res.AvgCCT() != b.Res.AvgCCT() || a.Res.Makespan != b.Res.Makespan {
			t.Fatalf("job %s not reproducible across runs (cross-job trace mutation?)", a.Job.Key())
		}
		if a.Job.Variant == "A=1" {
			makespan[0] = a.Res.Makespan
		} else {
			makespan[1] = a.Res.Makespan
		}
	}
	if makespan[0] <= makespan[1] {
		t.Fatalf("4x-faster arrivals did not shorten the makespan (%v vs %v): mutation lost?", makespan[0], makespan[1])
	}
}
