package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// newEngine builds an engine with tr loaded on a fresh workspace, for
// the tests that drive one boundary by boundary.
func newEngine(tr *trace.Trace, s sched.Scheduler, cfg Config) (*engine, error) {
	return new(Workspace).newEngine(tr, s, cfg)
}

// reuseJob is one run of a workspace-reuse sequence. policy builds a
// fresh scheduler for each of the run's two sides.
type reuseJob struct {
	name   string
	tr     *trace.Trace
	policy func() sched.Scheduler
	cfg    Config
}

// registered builds the named registered policy.
func registered(t testing.TB, name string) func() sched.Scheduler {
	return func() sched.Scheduler {
		s, err := sched.New(name, sched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// indexLog wraps a policy and hashes what it is shown of the dense
// indices: each Schedule call's index caps and every live CoFlow's and
// flow's index. A run on a reused workspace must show a policy the
// indices a fresh one does, since tie-breaks may read them.
type indexLog struct {
	sched.Scheduler
	h hash.Hash64
}

func (l *indexLog) Schedule(snap *sched.Snapshot) *sched.RateVec {
	fmt.Fprint(l.h, snap.Now, snap.FlowCap, snap.CoFlowCap)
	for _, c := range snap.Active {
		fmt.Fprint(l.h, c.ID(), c.Idx)
		for _, f := range c.Flows {
			fmt.Fprint(l.h, f.Idx)
		}
	}
	return l.Scheduler.Schedule(snap)
}

// reuseRun is what one side of checkReuse compares: the result, the
// error, the telemetry export and the hash of the indices the policy saw.
type reuseRun struct {
	res     *Result
	err     error
	metrics []byte
	indices uint64
}

// runOnce runs j on w with a telemetry suite attached that keeps points
// and progress series, and the policy wrapped in an indexLog.
func runOnce(t testing.TB, w *Workspace, j reuseJob) reuseRun {
	t.Helper()
	suite := telemetry.NewSuite(telemetry.Spec{Enabled: true, Seed: 7, RingCap: 64, ReservoirCap: 64, ProgressCoFlows: 2})
	log := &indexLog{Scheduler: j.policy(), h: fnv.New64a()}
	res, err := w.Run(j.tr, log, j.cfg.WithProbe(suite))
	m, merr := json.Marshal(suite.Metrics())
	if merr != nil {
		t.Fatalf("%s: %v", j.name, merr)
	}
	return reuseRun{res, err, m, log.h.Sum64()}
}

// checkReuse runs j on ws and on a fresh workspace and requires the two
// to agree: the same Result, per-flow rows included, or the same error;
// the same telemetry export bytes; and the same indices shown to the
// policy. It reports whether the run succeeded.
func checkReuse(t testing.TB, ws *Workspace, j reuseJob) bool {
	t.Helper()
	got, want := runOnce(t, ws, j), runOnce(t, new(Workspace), j)
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: reused workspace returned error %v, fresh %v", j.name, got.err, want.err)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%s: result on a reused workspace differs from a fresh run's", j.name)
	}
	if !bytes.Equal(got.metrics, want.metrics) {
		t.Fatalf("%s: telemetry export on a reused workspace differs from a fresh run's", j.name)
	}
	if got.indices != want.indices {
		t.Fatalf("%s: the policy saw other indices on a reused workspace", j.name)
	}
	return want.err == nil
}

// TestWorkspaceReuseMatchesFresh runs a sequence of jobs on one
// workspace — port counts that grow and shrink, every registered
// policy, Dynamics and Pipelining, a DAG trace, a run that fails its
// horizon with CoFlows live and one that fails its audit — and holds
// each to a run on a fresh workspace.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	wide := smallSynth(8)
	wide.NumPorts, wide.NumCoFlows = 60, 50
	narrow := smallSynth(9)
	narrow.NumPorts = 6
	traces := []*trace.Trace{
		trace.Synthesize(smallSynth(3), "synth-20"),
		trace.Synthesize(wide, "synth-60"),
		trace.Synthesize(narrow, "synth-6"),
		contendedTrace(4),
		diamondTrace(),
	}
	configs := []Config{
		{},
		{Dynamics: &Dynamics{Seed: 11, StragglerProb: 0.2, Slowdown: 3, RestartProb: 0.15, RestartAt: 0.4}},
		{Pipelining: &Pipelining{Seed: 13, Frac: 0.3, AvailDelay: 40 * coflow.Millisecond}},
	}
	var jobs []reuseJob
	for i, name := range sched.Names() {
		tr, cfg := traces[i%len(traces)], configs[i%len(configs)]
		jobs = append(jobs, reuseJob{fmt.Sprintf("%s on %s, config %d", name, tr.Name, i%len(configs)), tr, registered(t, name), cfg})
		if i == 2 {
			jobs = append(jobs,
				reuseJob{"saath past its horizon", traces[1], registered(t, "saath"), Config{Horizon: 100 * coflow.Millisecond}},
				// The last audit of the first leaves the ledgers drawn at the
				// port the second oversubscribes.
				reuseJob{"saath on the rogue trace", rogueTrace(), registered(t, "saath"), Config{}},
				reuseJob{"an oversubscribing policy", rogueTrace(), func() sched.Scheduler { return rogueScheduler{mode: "oversubscribe"} }, Config{}})
		}
	}
	for _, tr := range traces {
		jobs = append(jobs, reuseJob{"saath with both on " + tr.Name, tr, registered(t, "saath"),
			Config{Dynamics: configs[1].Dynamics, Pipelining: configs[2].Pipelining}})
	}

	var ws Workspace
	failed := 0
	for _, j := range jobs {
		if checkReuse(t, &ws, j) {
			if cap(ws.valFlows) == 0 || cap(ws.active) == 0 {
				t.Fatalf("%s: the workspace carries no storage after a run", j.name)
			}
		} else {
			failed++
			if !reflect.DeepEqual(ws, Workspace{}) {
				t.Fatalf("%s: a failed run left storage in the workspace", j.name)
			}
		}
	}
	if failed != 2 {
		t.Fatalf("%d runs failed, want the horizon's and the audit's", failed)
	}
}

// TestRunLeavesTraceUnchanged: a run only reads its trace. Under every
// registered policy, plain, with Dynamics and with Pipelining, on a
// synthetic trace and a DAG trace, the trace writes the same bytes
// after the run as before and equals a clone taken before it.
func TestRunLeavesTraceUnchanged(t *testing.T) {
	configs := []Config{
		{},
		{Dynamics: &Dynamics{Seed: 11, StragglerProb: 0.3, Slowdown: 3, RestartProb: 0.3, RestartAt: 0.4}},
		{Pipelining: &Pipelining{Seed: 13, Frac: 0.5, AvailDelay: 40 * coflow.Millisecond}},
	}
	write := func(tr *trace.Trace) []byte {
		var b bytes.Buffer
		if err := trace.Write(&b, tr); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, tr := range []*trace.Trace{trace.Synthesize(smallSynth(3), "synth"), diamondTrace()} {
		before, clone := write(tr), tr.Clone()
		for _, name := range sched.Names() {
			for i, cfg := range configs {
				if _, err := Run(tr, registered(t, name)(), cfg); err != nil {
					t.Fatalf("%s on %s, config %d: %v", name, tr.Name, i, err)
				}
				if !bytes.Equal(write(tr), before) {
					t.Fatalf("%s on %s, config %d: the trace writes other bytes after the run", name, tr.Name, i)
				}
				if !reflect.DeepEqual(tr, clone) {
					t.Fatalf("%s on %s, config %d: the trace differs from its clone after the run", name, tr.Name, i)
				}
			}
		}
	}
}

// FuzzWorkspaceReuse runs pairs of small random jobs through one
// workspace and holds each to a run on a fresh one. Each job's trace,
// policy and configuration come from its seed; knobs turns on, per job,
// DAG gates (a few naming an ID no CoFlow has, so the run ends
// unreachable), Dynamics, Pipelining and a horizon short enough to end
// most runs with CoFlows live.
func FuzzWorkspaceReuse(f *testing.F) {
	names := sched.Names()
	f.Fuzz(func(t *testing.T, a, b int64, knobs uint16) {
		var ws Workspace
		for i, seed := range []int64{a, b} {
			checkReuse(t, &ws, fuzzJob(t, names, seed, uint8(knobs>>(8*i))))
		}
	})
}

// fuzzJob builds one random job from seed: up to 24 ports and 16
// CoFlows of up to 6 flows, arriving over 300 ms. knobs' bits turn on
// DAG gates (1), Dynamics (2), Pipelining (4) and a 40 ms horizon (8).
func fuzzJob(t testing.TB, names []string, seed int64, knobs uint8) reuseJob {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Name: fmt.Sprintf("fuzz-%d", seed), NumPorts: 1 + rng.Intn(24)}
	n := 1 + rng.Intn(16)
	for id := 1; id <= n; id++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(id), Arrival: coflow.Time(rng.Int63n(int64(300 * coflow.Millisecond)))}
		for range 1 + rng.Intn(6) {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{
				Src:  coflow.PortID(rng.Intn(tr.NumPorts)),
				Dst:  coflow.PortID(rng.Intn(tr.NumPorts)),
				Size: coflow.KB + coflow.Bytes(rng.Int63n(int64(8*coflow.MB))),
			})
		}
		if knobs&1 != 0 && id > 1 && rng.Intn(3) == 0 {
			// An earlier CoFlow, or now and then one the trace lacks.
			dep := coflow.CoFlowID(1 + rng.Intn(id-1))
			if rng.Intn(8) == 0 {
				dep = coflow.CoFlowID(n + 1)
			}
			spec.DependsOn = []coflow.CoFlowID{dep}
		}
		tr.Specs = append(tr.Specs, spec)
	}
	cfg := Config{Delta: coflow.Time(4<<rng.Intn(3)) * coflow.Millisecond}
	if knobs&2 != 0 {
		cfg.Dynamics = &Dynamics{Seed: seed, StragglerProb: rng.Float64(), Slowdown: 1 + 3*rng.Float64(), RestartProb: rng.Float64(), RestartAt: 0.2 + 0.6*rng.Float64()}
	}
	if knobs&4 != 0 {
		cfg.Pipelining = &Pipelining{Seed: seed, Frac: rng.Float64(), AvailDelay: coflow.Time(rng.Int63n(int64(100 * coflow.Millisecond)))}
	}
	if knobs&8 != 0 {
		cfg.Horizon = 40 * coflow.Millisecond
	}
	name := names[rng.Intn(len(names))]
	return reuseJob{fmt.Sprintf("%s on %s (knobs %#x)", name, tr.Name, knobs), tr, registered(t, name), cfg}
}
