package testbed

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"

	_ "saath/internal/core" // registers the saath policy family
)

// synthJob builds a self-contained testbed job over a synthetic
// FB-marginal workload.
func synthJob(name string, ports, coflows int) sweep.Job {
	return sweep.Job{
		Trace:     name,
		Scheduler: "saath",
		Seed:      1,
		Params:    sched.DefaultParams(),
		Gen: func() *trace.Trace {
			cfg := latencyCfg(1, ports)
			cfg.NumCoFlows = coflows
			return trace.Synthesize(cfg, name)
		},
	}
}

// TestRunJobSmoke: a small job completes through the coordinator, the
// result is simulator-shaped (virtual time), and the runtime record
// carries real measurements.
func TestRunJobSmoke(t *testing.T) {
	res, rec, err := RunJob(synthJob("tb-smoke", 16, 30), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoFlows) != 30 {
		t.Fatalf("completed %d of 30 coflows", len(res.CoFlows))
	}
	for i := 1; i < len(res.CoFlows); i++ {
		if res.CoFlows[i].ID <= res.CoFlows[i-1].ID {
			t.Fatal("result coflows not ID-sorted")
		}
	}
	if res.Makespan <= 0 || res.Intervals <= 0 {
		t.Fatalf("degenerate result: makespan=%v intervals=%d", res.Makespan, res.Intervals)
	}
	for _, c := range res.CoFlows {
		if c.CCT <= 0 || c.DoneAt != c.Arrival+c.CCT {
			t.Fatalf("coflow %d: inconsistent times arrival=%v cct=%v done=%v", c.ID, c.Arrival, c.CCT, c.DoneAt)
		}
	}
	if rec.Agents != 16 || rec.Ports != 16 {
		t.Fatalf("record agents/ports = %d/%d, want 16/16", rec.Agents, rec.Ports)
	}
	if rec.ScheduleCalls == 0 || rec.Boundaries == 0 {
		t.Fatalf("no coordinator measurements: %+v", rec)
	}
	if rec.Admitted != 30 || rec.Completed != 30 {
		t.Fatalf("admitted/completed = %d/%d, want 30/30", rec.Admitted, rec.Completed)
	}
}

// TestRunJobDeterminism: the same job run twice yields identical
// virtual-time results — the property every golden below rides on.
func TestRunJobDeterminism(t *testing.T) {
	a, _, err := RunJob(synthJob("tb-det", 20, 40), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunJob(synthJob("tb-det", 20, 40), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.CoFlows) != len(b.CoFlows) || a.Makespan != b.Makespan {
		t.Fatalf("runs diverged: %d/%v vs %d/%v", len(a.CoFlows), a.Makespan, len(b.CoFlows), b.Makespan)
	}
	for i := range a.CoFlows {
		x, y := a.CoFlows[i], b.CoFlows[i]
		if x.ID != y.ID || x.Arrival != y.Arrival || x.DoneAt != y.DoneAt || x.CCT != y.CCT {
			t.Fatalf("coflow %d diverged:\n  %+v\n  %+v", i, x, y)
		}
	}
}

// TestRunJobRejectsSimulatorOnlyFeatures: telemetry and cluster
// dynamics have no system-path equivalent; the driver refuses them
// instead of silently dropping them.
func TestRunJobRejectsSimulatorOnlyFeatures(t *testing.T) {
	j := synthJob("tb-feat", 8, 4)
	j.Telemetry.Enabled = true
	if _, _, err := RunJob(j, Config{}); err == nil || !strings.Contains(err.Error(), "telemetry") {
		t.Fatalf("telemetry job: err = %v, want simulator-only rejection", err)
	}
}

// TestRunJobHorizonGuard: a job that cannot drain within its
// sim.Config.Horizon errors out instead of spinning forever.
func TestRunJobHorizonGuard(t *testing.T) {
	j := synthJob("tb-horizon", 8, 20)
	j.Config.Horizon = 3 * 8 * coflow.Millisecond // three δ boundaries
	if _, _, err := RunJob(j, Config{}); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("err = %v, want horizon guard", err)
	}
}

func mustBuild(t *testing.T, name string) *study.Study {
	t.Helper()
	st, err := study.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func renderAll(t *testing.T, res *study.Result) []byte {
	t.Helper()
	tables, err := res.Tables()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestOverloadByteIdentity pins the testbed determinism contract: the
// overload study's rendered tables are byte-identical at -parallel 1,
// -parallel 8, and reassembled from a 3-way shard split — virtual-time
// results cannot depend on execution interleaving or partitioning.
func TestOverloadByteIdentity(t *testing.T) {
	ctx := context.Background()
	st := mustBuild(t, "overload")

	run := func(parallel int) []byte {
		res, err := st.Run(ctx, study.Pool{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return renderAll(t, res)
	}
	serial := run(1)
	if parallel := run(8); !bytes.Equal(serial, parallel) {
		t.Fatal("overload tables differ between -parallel 1 and -parallel 8")
	}

	var dumps []*study.ShardDump
	for i := 0; i < 3; i++ {
		sh := study.Sharded{Index: i, Count: 3, Pool: study.Pool{Parallel: 2}}
		res, err := st.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		dump, err := res.ShardDump(sh)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, dump)
	}
	merged, err := study.MergeShards(st, dumps...)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, merged); !bytes.Equal(serial, got) {
		t.Fatal("overload tables differ between single-process run and 3-shard merge")
	}
}

// TestOverloadDropsScaleWithRate: the admission table's point — drops
// are zero below the bucket's sustained rate and grow with offered
// rate above it.
func TestOverloadDropsScaleWithRate(t *testing.T) {
	st := mustBuild(t, "overload")
	res, err := st.Run(context.Background(), study.Pool{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	completed := map[string]int{}
	for _, e := range res.Summary().Entries() {
		completed[e.Metrics.Variant] += e.Metrics.CoFlows
	}
	if completed["A=0.5"] != 2*overloadOffered || completed["A=1"] != 2*overloadOffered {
		t.Fatalf("sub-rate variants shed load: %v", completed)
	}
	if !(completed["A=2"] < completed["A=1"] && completed["A=4"] < completed["A=2"]) {
		t.Fatalf("drops do not grow with offered rate: %v", completed)
	}
}

// TestCoordinatorLatencyStudy: the Table 2 path end to end — the study
// runs through the real coordinator at up to 10^4 in-process agents
// and the out-of-band runtime report carries per-cluster-size
// schedule-latency measurements.
func TestCoordinatorLatencyStudy(t *testing.T) {
	st := mustBuild(t, "coordinator-latency")
	res, err := st.Run(context.Background(), study.Pool{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	rep := res.Sweep().RuntimeReport()
	if len(rep.Records) != len(latencyPorts) {
		t.Fatalf("runtime records = %d, want %d", len(rep.Records), len(latencyPorts))
	}
	seen := map[int]bool{}
	for _, rec := range rep.Records {
		seen[rec.Agents] = true
		if rec.ScheduleCalls == 0 || rec.ScheduleMeanNs <= 0 {
			t.Fatalf("variant %s: no schedule-latency measurements: %+v", rec.Variant, rec)
		}
		if rec.Agents != rec.Ports {
			t.Fatalf("variant %s: agents %d != ports %d", rec.Variant, rec.Agents, rec.Ports)
		}
	}
	if !seen[10000] {
		t.Fatalf("no 10^4-agent record in %v", rep.Records)
	}
	tab := obs.RuntimeTable("coordinator latency", rep)
	if len(tab.Rows) != len(latencyPorts) {
		t.Fatalf("latency table rows = %d, want %d", len(tab.Rows), len(latencyPorts))
	}
}

// TestManifestRuntimeSection: an attached recorder lands one runtime
// record per job in the manifest's runtime section, grid-ordered.
func TestManifestRuntimeSection(t *testing.T) {
	st := mustBuild(t, "overload")
	rec := obs.NewRecorder("overload")
	res, err := st.Run(context.Background(), study.Pool{Parallel: 4, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	m := rec.Manifest()
	if m.Runtime == nil {
		t.Fatal("manifest has no runtime section")
	}
	jobs := len(st.Jobs())
	if len(m.Runtime.Records) != jobs || len(m.Jobs) != jobs {
		t.Fatalf("runtime/job records = %d/%d, want %d", len(m.Runtime.Records), len(m.Jobs), jobs)
	}
	for i := 1; i < len(m.Runtime.Records); i++ {
		if m.Runtime.Records[i].Index <= m.Runtime.Records[i-1].Index {
			t.Fatal("runtime records not grid-ordered")
		}
	}
	// The boundary phase split: every phase did work in every job, the
	// phases are disjoint slices of the job's wall time, and the schedule
	// total is the recorder's own sum, not mean × calls.
	for i, rr := range m.Runtime.Records {
		if rr.MergeNs <= 0 || rr.RetireNs <= 0 || rr.ScheduleTotalNs <= 0 || rr.EncodeNs <= 0 || rr.DeliverNs <= 0 {
			t.Errorf("job %d: a boundary phase saw no time: %+v", rr.Index, rr)
		}
		sum := rr.MergeNs + rr.RetireNs + rr.ScheduleTotalNs + rr.EncodeNs + rr.DeliverNs
		if wall := m.Jobs[i].Span.Duration().Nanoseconds(); m.Jobs[i].Index != rr.Index || sum > wall {
			t.Errorf("job %d: phases sum to %dns, more than the job's %dns of wall time", rr.Index, sum, wall)
		}
		if rr.ScheduleTotalNs < rr.ScheduleMaxNs || rr.ScheduleTotalNs/int64(rr.ScheduleCalls) != rr.ScheduleMeanNs {
			t.Errorf("job %d: schedule total %dns does not agree with max %dns / mean %dns over %d calls",
				rr.Index, rr.ScheduleTotalNs, rr.ScheduleMaxNs, rr.ScheduleMeanNs, rr.ScheduleCalls)
		}
	}
}

// TestTestbedScaleHundredThousand is the 10^5-agent long run, skipped
// by default: SAATH_LONG=1 go test ./internal/testbed/ -run HundredThousand
func TestTestbedScaleHundredThousand(t *testing.T) {
	if os.Getenv("SAATH_LONG") == "" {
		t.Skip("set SAATH_LONG=1 to run the 10^5-agent testbed job")
	}
	j := synthJob("tb-100k", 100000, 20)
	start := time.Now()
	res, rec, err := RunJob(j, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Agents != 100000 {
		t.Fatalf("agents = %d, want 100000", rec.Agents)
	}
	if len(res.CoFlows) != 20 {
		t.Fatalf("completed %d of 20 coflows", len(res.CoFlows))
	}
	if rec.ScheduleCalls == 0 {
		t.Fatal("no schedule-latency measurements at 10^5 agents")
	}
	t.Logf("10^5 agents: %d boundaries, schedule mean %dns p90 %dns max %dns",
		rec.Boundaries, rec.ScheduleMeanNs, rec.ScheduleP90Ns, rec.ScheduleMaxNs)
	// The paper's claim is a boundary inside δ (8 ms): report the mean
	// coordinator time per boundary against it, with the phase split.
	inCoord := rec.MergeNs + rec.RetireNs + rec.ScheduleTotalNs + rec.EncodeNs + rec.DeliverNs
	perBoundary := time.Duration(inCoord / int64(rec.Boundaries))
	delta := 8 * time.Millisecond
	t.Logf("coordinator time per boundary %v = %.2f%% of δ=%v (merge %v, retire %v, schedule %v, encode %v, deliver %v over the job; job wall %v)",
		perBoundary, 100*float64(perBoundary)/float64(delta), delta,
		time.Duration(rec.MergeNs), time.Duration(rec.RetireNs), time.Duration(rec.ScheduleTotalNs),
		time.Duration(rec.EncodeNs), time.Duration(rec.DeliverNs), time.Since(start))
}

// TestDeltaOverride: the study-level δ reaches the coordinator — twice
// the δ roughly halves the boundary count for the same workload.
func TestDeltaOverride(t *testing.T) {
	j := synthJob("tb-delta", 12, 20)
	j.Config.Delta = 8 * coflow.Millisecond
	_, rec8, err := RunJob(j, Config{})
	if err != nil {
		t.Fatal(err)
	}
	j.Config.Delta = 16 * coflow.Millisecond
	_, rec16, err := RunJob(j, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec16.Boundaries >= rec8.Boundaries {
		t.Fatalf("doubling δ did not reduce boundaries: %d vs %d", rec16.Boundaries, rec8.Boundaries)
	}
}

// TestTestbedJobsAreStamped: a testbed-backed study's jobs go through
// the one pool, so each carries its wall time — what -progress and the
// obs manifest read. Not a threshold: only "was stamped".
func TestTestbedJobsAreStamped(t *testing.T) {
	st := mustBuild(t, "overload")
	res, err := st.Run(context.Background(), study.Pool{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Sweep().Jobs {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		if jr.Elapsed <= 0 {
			t.Errorf("job %s: Elapsed = %v, want > 0", jr.Job.Key(), jr.Elapsed)
		}
		if jr.Runtime == nil || jr.Runtime.Index != jr.Job.Index {
			t.Errorf("job %s: runtime record = %+v, want this job's", jr.Job.Key(), jr.Runtime)
		}
	}
}

// panicPolicy is Saath until its third Schedule call, which panics the
// way a scheduler bug would.
type panicPolicy struct {
	sched.Scheduler
	calls int
}

func (p *panicPolicy) Schedule(snap *sched.Snapshot) *sched.RateVec {
	if p.calls++; p.calls == 3 {
		panic("test-panic: scheduler bug")
	}
	return p.Scheduler.Schedule(snap)
}

// starvePolicy never rates a flow: a livelock that only the horizon
// guard ends.
type starvePolicy struct{ sched.Scheduler }

func (starvePolicy) Schedule(snap *sched.Snapshot) *sched.RateVec { return snap.Allocation() }

func init() {
	sched.Register("test-panic", func(p sched.Params) (sched.Scheduler, error) {
		inner, err := sched.New("saath", p)
		return &panicPolicy{Scheduler: inner}, err
	})
	sched.Register("test-starve", func(p sched.Params) (sched.Scheduler, error) {
		inner, err := sched.New("saath", p)
		return starvePolicy{inner}, err
	})
}

// countingCollector counts deliveries per grid index.
type countingCollector map[int]int

func (c countingCollector) Add(jr sweep.JobResult) { c[jr.Job.Index]++ }

// TestPanicCostsOneJob: a job that fails — a policy blowing up mid-run,
// or one that never rates a flow and so runs into the horizon guard —
// under the simulator's body and under the testbed's, becomes that
// job's error (key, cause, where a panic was raised); the sweep
// finishes, sibling jobs produce what they produce without it, and the
// collectors, progress and the obs record see the job exactly once.
func TestPanicCostsOneJob(t *testing.T) {
	source := sweep.SynthSource("tb-panic", func(seed int64) *trace.Trace {
		cfg := latencyCfg(seed, 12)
		cfg.NumCoFlows = 10
		return trace.Synthesize(cfg, "tb-panic")
	})
	for _, body := range []struct {
		name    string
		exec    sweep.ExecFunc
		horizon string // how the body's horizon guard words its error
	}{{"simulator", nil, "sim: horizon exceeded"}, {"testbed", Exec(Config{}), "(horizon guard)"}} {
		t.Run(body.name, func(t *testing.T) {
			faults := map[string][]string{
				"test-panic":  {"test-panic: scheduler bug", "panicPolicy).Schedule"},
				"test-starve": {body.horizon},
			}
			grid := sweep.Grid{
				Traces: []sweep.TraceSource{source}, Seeds: []int64{1, 2},
				// Failing jobs first, and one worker below: a failure that
				// ended the sweep would skip every healthy job after it.
				Schedulers: []string{"test-panic", "test-starve", "saath"},
				Params:     sched.DefaultParams(), Exec: body.exec,
				// Far past the healthy jobs' makespan, and short enough
				// that a starving job reaches it in milliseconds.
				Config: sim.Config{Horizon: 60 * coflow.Second},
			}
			jobs := grid.Jobs()
			grid.Schedulers = []string{"saath"}
			want := sweep.Run(context.Background(), grid.Jobs(), sweep.Options{Parallel: 1})

			seen, progressed := countingCollector{}, 0
			rec := obs.NewRecorder("panic")
			res := sweep.Run(context.Background(), jobs, sweep.Options{
				Parallel: 1, Observer: rec, Collectors: []sweep.Collector{seen},
				Progress: func(done, total int, jr sweep.JobResult) { progressed++ },
			})
			if progressed != len(jobs) || len(rec.Manifest().Jobs) != len(jobs) {
				t.Errorf("progress saw %d jobs, the manifest %d, want %d", progressed, len(rec.Manifest().Jobs), len(jobs))
			}
			healthy := 0
			for i, jr := range res.Jobs {
				if seen[i] != 1 {
					t.Errorf("job %s delivered %d times", jr.Job.Key(), seen[i])
				}
				if jr.Elapsed <= 0 {
					t.Errorf("job %s: Elapsed not stamped", jr.Job.Key())
				}
				if parts, ok := faults[jr.Job.Scheduler]; ok {
					if jr.Err == nil || jr.Res != nil {
						t.Fatalf("job %s: err = %v, res = %v, want its failure as its error", jr.Job.Key(), jr.Err, jr.Res)
					}
					for _, part := range append([]string{jr.Job.Key()}, parts...) {
						if !strings.Contains(jr.Err.Error(), part) {
							t.Errorf("job %s: error %q does not name %q", jr.Job.Key(), jr.Err, part)
						}
					}
					continue
				}
				sibling := want.Jobs[healthy]
				healthy++
				if jr.Err != nil || jr.Res.Makespan != sibling.Res.Makespan || len(jr.Res.CoFlows) != len(sibling.Res.CoFlows) {
					t.Errorf("job %s: sibling of a failing job diverged (err %v)", jr.Job.Key(), jr.Err)
				}
			}
		})
	}
}
