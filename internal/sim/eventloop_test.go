package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// admissionLog wraps a scheduler and records every Arrive call, making
// the order and boundary of admissions directly comparable.
type admissionLog struct {
	sched.Scheduler
	admitted []string
}

func (l *admissionLog) Arrive(c *coflow.CoFlow, now coflow.Time) {
	l.admitted = append(l.admitted, fmt.Sprintf("%d@%d", c.ID(), now))
	l.Scheduler.Arrive(c, now)
}

// replay runs tr through run (Run or runReference) under a logging
// scheduler.
func replay(t *testing.T, run func(*trace.Trace, sched.Scheduler, Config) (*Result, error),
	tr *trace.Trace, scheduler string, cfg Config) (*Result, []string) {
	t.Helper()
	s, err := sched.New(scheduler, sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	log := &admissionLog{Scheduler: s}
	res, err := run(tr.Clone(), log, cfg)
	if err != nil {
		t.Fatalf("%s on %s: %v", scheduler, tr.Name, err)
	}
	return res, log.admitted
}

// sameResult compares the reference stepper's run and the engine's
// field-for-field at full precision.
func sameResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if ref.Makespan != got.Makespan {
		t.Errorf("%s: makespan reference %v, engine %v", label, ref.Makespan, got.Makespan)
	}
	if ref.Intervals != got.Intervals {
		t.Errorf("%s: intervals reference %d, engine %d", label, ref.Intervals, got.Intervals)
	}
	if ref.AvgEgressUtilization != got.AvgEgressUtilization {
		t.Errorf("%s: utilization reference %v, engine %v", label, ref.AvgEgressUtilization, got.AvgEgressUtilization)
	}
	if len(ref.CoFlows) != len(got.CoFlows) {
		t.Fatalf("%s: coflows reference %d, engine %d", label, len(ref.CoFlows), len(got.CoFlows))
	}
	for i := range ref.CoFlows {
		rc, gc := ref.CoFlows[i], got.CoFlows[i]
		if rc.ID != gc.ID || rc.Arrival != gc.Arrival || rc.DoneAt != gc.DoneAt ||
			rc.CCT != gc.CCT || rc.Width != gc.Width || rc.Bytes != gc.Bytes || len(rc.Flows) != len(gc.Flows) {
			t.Fatalf("%s: coflow[%d] reference %+v, engine %+v", label, i, rc, gc)
		}
		for j := range rc.Flows {
			if rc.Flows[j] != gc.Flows[j] {
				t.Errorf("%s: coflow %d flow[%d] reference %+v, engine %+v",
					label, rc.ID, j, rc.Flows[j], gc.Flows[j])
			}
		}
	}
}

// TestEventModeScenarioParity replays every engine edge case — DAG
// gating, stragglers, restarts, pipelining, combined dynamics, idle
// gaps, zero-size flows, and the arrival cursor's corner cases — on the
// engine and on the reference stepper and requires identical results
// down to each flow's exact completion time.
func TestEventModeScenarioParity(t *testing.T) {
	u := coflow.Bytes(trace.MicroUnitBytes)
	// Per-flow RNG draws make the admission order matter to the outcome:
	// swap two admissions and the straggler / withheld-flow rolls land
	// on different flows.
	orderSensitive := Config{
		Dynamics:   &Dynamics{Seed: 5, StragglerProb: 0.5, Slowdown: 3},
		Pipelining: &Pipelining{Seed: 6, Frac: 0.5, AvailDelay: 10 * coflow.Millisecond},
	}
	scenarios := []struct {
		name string
		tr   *trace.Trace
		cfg  Config
	}{
		{"dag-chain", &trace.Trace{Name: "dag", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: u}}},
			{ID: 2, Arrival: 0, Stage: 1, DependsOn: []coflow.CoFlowID{1},
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: u}}},
			{ID: 3, Arrival: 0, Stage: 2, DependsOn: []coflow.CoFlowID{2},
				Flows: []coflow.FlowSpec{{Src: 2, Dst: 3, Size: u}}},
		}}, Config{}},
		{"dag-join-late-arrival", &trace.Trace{Name: "join", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 4 * coflow.MB}}},
			{ID: 2, Arrival: 3 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 2, Dst: 3, Size: 9 * coflow.MB}}},
			{ID: 3, Arrival: 100 * coflow.Millisecond, DependsOn: []coflow.CoFlowID{1, 2},
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 0, Size: u}, {Src: 3, Dst: 2, Size: u}}},
		}}, Config{}},
		{"stragglers", &trace.Trace{Name: "slow", NumPorts: 2, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 10 * coflow.MB}}},
		}}, Config{Dynamics: &Dynamics{Seed: 1, StragglerProb: 1.0, Slowdown: 4}}},
		{"restarts", &trace.Trace{Name: "restart", NumPorts: 2, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 50 * coflow.MB}}},
		}}, Config{Dynamics: &Dynamics{Seed: 1, RestartProb: 1.0, RestartAt: 0.5}}},
		{"pipelining", &trace.Trace{Name: "pipe", NumPorts: 2, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
			{ID: 2, Arrival: coflow.Millisecond, Flows: []coflow.FlowSpec{
				{Src: 1, Dst: 0, Size: 2 * coflow.MB}, {Src: 0, Dst: 1, Size: 3 * coflow.MB}}},
		}}, Config{Pipelining: &Pipelining{Seed: 1, Frac: 0.7, AvailDelay: 20 * coflow.Millisecond}}},
		{"dynamics-and-pipelining-dag", &trace.Trace{Name: "mix", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{
				{Src: 0, Dst: 1, Size: 8 * coflow.MB}, {Src: 2, Dst: 3, Size: 5 * coflow.MB}}},
			{ID: 2, Arrival: 2 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 3, Dst: 0, Size: 6 * coflow.MB}}},
			{ID: 3, Arrival: 0, DependsOn: []coflow.CoFlowID{1, 2}, Flows: []coflow.FlowSpec{
				{Src: 1, Dst: 2, Size: 4 * coflow.MB}, {Src: 0, Dst: 3, Size: 2 * coflow.MB}}},
		}}, Config{
			Dynamics:   &Dynamics{Seed: 3, StragglerProb: 0.5, Slowdown: 2, RestartProb: 0.5},
			Pipelining: &Pipelining{Seed: 4, Frac: 0.5, AvailDelay: 16 * coflow.Millisecond},
		}},
		{"idle-gap", &trace.Trace{Name: "gap", NumPorts: 2, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
			{ID: 2, Arrival: 3600 * coflow.Second, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
		}}, Config{}},
		{"zero-size-flow-gating", &trace.Trace{Name: "zero", NumPorts: 2, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 0}}},
			{ID: 2, Arrival: 0, DependsOn: []coflow.CoFlowID{1},
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 0, Size: coflow.MB}}},
		}}, Config{}},
		{"mid-interval-arrival", &trace.Trace{Name: "mid", NumPorts: 2, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 3 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
			{ID: 2, Arrival: 5 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 1, Dst: 0, Size: coflow.MB}}},
		}}, Config{}},
		// The cursor must order by (δ boundary, spec index), not by
		// trace position or raw arrival time: specs 1 and 3 share the
		// 8 ms boundary and admit in index order although 3 arrives
		// first; spec 2 (24 ms) waits behind spec 4 (16 ms).
		{"unsorted-arrivals", &trace.Trace{Name: "unsorted", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 7 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 3 * coflow.MB}}},
			{ID: 2, Arrival: 20 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 0, Dst: 2, Size: 2 * coflow.MB}}},
			{ID: 3, Arrival: 2 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 0, Dst: 3, Size: 4 * coflow.MB}}},
			{ID: 4, Arrival: 9 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: coflow.MB}}},
			{ID: 5, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 2, Dst: 0, Size: 5 * coflow.MB}}},
		}}, orderSensitive},
		{"several-arrivals-in-one-delta", &trace.Trace{Name: "burst", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 9 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 2 * coflow.MB}}},
			{ID: 2, Arrival: 10 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 0, Dst: 2, Size: 2 * coflow.MB}}},
			{ID: 3, Arrival: 10 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 2 * coflow.MB}}},
			{ID: 4, Arrival: 15 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 3, Dst: 2, Size: 2 * coflow.MB}}},
			{ID: 5, Arrival: 16 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 3, Dst: 0, Size: 2 * coflow.MB}}},
		}}, orderSensitive},
		// CoFlow 1 (1 MB, done mid-interval at ≈8.4 ms) releases its
		// dependent at the 16 ms boundary, where a cursor arrival also
		// lands: the two must admit in spec-index order whichever of them
		// comes from the heap (no dynamics here — they would move the
		// completion off the tie).
		{"dag-release-ties-cursor/dag-first", &trace.Trace{Name: "tie-a", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
			{ID: 2, Arrival: 0, DependsOn: []coflow.CoFlowID{1},
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 3 * coflow.MB}, {Src: 1, Dst: 3, Size: coflow.MB}}},
			{ID: 3, Arrival: 12 * coflow.Millisecond,
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 2 * coflow.MB}, {Src: 0, Dst: 3, Size: coflow.MB}}},
		}}, Config{}},
		// 1,000,000 B is exactly one interval at line rate: CoFlow 1
		// completes on the 8 ms boundary itself, so its completion event
		// ties with a cursor arrival and must pop first for the dependent
		// (index 1) to admit ahead of it (index 2).
		{"dag-completion-on-boundary", &trace.Trace{Name: "tie-c", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 1000000}}},
			{ID: 2, Arrival: 0, DependsOn: []coflow.CoFlowID{1},
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 3 * coflow.MB}}},
			{ID: 3, Arrival: 5 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 2 * coflow.MB}}},
		}}, Config{}},
		{"dag-release-ties-cursor/cursor-first", &trace.Trace{Name: "tie-b", NumPorts: 4, Specs: []*coflow.Spec{
			{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
			{ID: 3, Arrival: 12 * coflow.Millisecond,
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 2 * coflow.MB}, {Src: 0, Dst: 3, Size: coflow.MB}}},
			{ID: 2, Arrival: 0, DependsOn: []coflow.CoFlowID{1},
				Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 3 * coflow.MB}, {Src: 1, Dst: 3, Size: coflow.MB}}},
		}}, Config{}},
	}
	for _, sc := range scenarios {
		for _, scheduler := range []string{"saath", "aalo", "varys"} {
			t.Run(sc.name+"/"+scheduler, func(t *testing.T) {
				ref, refAdmitted := replay(t, runReference, sc.tr, scheduler, sc.cfg)
				got, admitted := replay(t, Run, sc.tr, scheduler, sc.cfg)
				if !slices.Equal(refAdmitted, admitted) {
					t.Errorf("admissions (id@boundary) reference %v, engine %v", refAdmitted, admitted)
				}
				sameResult(t, sc.name, ref, got)
				if sc.name != "zero-size-flow-gating" {
					// A zero-size coflow completes instantly (CCT 0),
					// legitimately violating the CCT > 0 invariant.
					checkConservation(t, sc.tr, got)
				}
			})
		}
	}
}

// diamondTrace is a small diamond-dependency workload: two root
// shuffles gate a join stage which gates a final aggregation, plus an
// independent coflow arriving late.
func diamondTrace() *trace.Trace {
	flows := func(seed, n int) []coflow.FlowSpec {
		fs := make([]coflow.FlowSpec, n)
		for i := range fs {
			fs[i] = coflow.FlowSpec{
				Src:  coflow.PortID((seed + i) % 8),
				Dst:  coflow.PortID((seed + i + 3) % 8),
				Size: coflow.Bytes(seed+i+1) * 3 * coflow.MB,
			}
		}
		return fs
	}
	return &trace.Trace{Name: "dag-diamond", NumPorts: 8, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: flows(0, 4)},
		{ID: 2, Arrival: 5 * coflow.Millisecond, Flows: flows(2, 3)},
		{ID: 3, Arrival: 0, DependsOn: []coflow.CoFlowID{1, 2}, Flows: flows(4, 5)},
		{ID: 4, Arrival: 0, DependsOn: []coflow.CoFlowID{3}, Flows: flows(1, 2)},
		{ID: 5, Arrival: 200 * coflow.Millisecond, Flows: flows(3, 6)},
	}}
}

// TestEngineMatchesReferenceStepper is the standing equivalence
// contract on whole workloads: three policies × two seeds of the
// synthetic trace plus the DAG diamond, in plain, Dynamics and
// Pipelining configurations, must produce the reference stepper's
// Result field for field and its telemetry stream byte for byte (the
// suites ask for points and progress series, so the exported metrics
// JSON holds every per-interval series the probes observed).
func TestEngineMatchesReferenceStepper(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"dynamics", Config{Dynamics: &Dynamics{
			Seed: 11, StragglerProb: 0.2, Slowdown: 3, RestartProb: 0.15, RestartAt: 0.4,
		}}},
		{"pipelining", Config{Pipelining: &Pipelining{
			Seed: 13, Frac: 0.3, AvailDelay: 40 * coflow.Millisecond,
		}}},
	}
	check := func(t *testing.T, tr *trace.Trace, scheduler string, cfg Config) {
		spec := telemetry.Spec{Enabled: true, Seed: 7, RingCap: 256, ReservoirCap: 256, ProgressCoFlows: 4}
		refSuite, gotSuite := telemetry.NewSuite(spec), telemetry.NewSuite(spec)
		ref, _ := replay(t, runReference, tr, scheduler, cfg.WithProbe(refSuite))
		got, _ := replay(t, Run, tr, scheduler, cfg.WithProbe(gotSuite))
		sameResult(t, tr.Name, ref, got)
		refMetrics, err := json.Marshal(refSuite.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		gotMetrics, err := json.Marshal(gotSuite.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refMetrics, gotMetrics) {
			t.Errorf("%s: metrics JSON differs from the reference stepper's", tr.Name)
		}
	}
	for _, c := range configs {
		for _, scheduler := range []string{"saath", "varys", "aalo"} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", c.name, scheduler, seed), func(t *testing.T) {
					check(t, trace.Synthesize(smallSynth(seed), "synth"), scheduler, c.cfg)
				})
			}
		}
		t.Run(c.name+"/dag", func(t *testing.T) { check(t, diamondTrace(), "saath", c.cfg) })
	}
}

// TestEventModeCycleDetected: an all-DAG trace leaves the arrival cursor
// empty, and specs in a dependency cycle must surface the reference
// stepper's error instead of hanging on an empty heap.
func TestEventModeCycleDetected(t *testing.T) {
	tr := &trace.Trace{Name: "cycle", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, DependsOn: []coflow.CoFlowID{2},
			Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 1}}},
		{ID: 2, Arrival: 0, DependsOn: []coflow.CoFlowID{1},
			Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 1}}},
	}}
	s, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, refErr := runReference(tr.Clone(), s, Config{})
	_, err = Run(tr.Clone(), s, Config{})
	if err == nil || !strings.Contains(err.Error(), "2 coflows unreachable") {
		t.Fatalf("cycle not detected: %v", err)
	}
	if refErr == nil || refErr.Error() != err.Error() {
		t.Fatalf("cycle errors differ:\nreference: %v\n   engine: %v", refErr, err)
	}
}

// TestEventModeHorizonParity requires the engine and the reference
// stepper to fail a livelocked run with the identical horizon error,
// boundary included.
func TestEventModeHorizonParity(t *testing.T) {
	tr := &trace.Trace{Name: "stuck", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
	}}
	cfg := Config{Horizon: coflow.Second}
	_, refErr := runReference(tr.Clone(), nullScheduler{}, cfg)
	_, err := Run(tr.Clone(), nullScheduler{}, cfg)
	if refErr == nil || err == nil {
		t.Fatalf("livelock not detected: reference=%v engine=%v", refErr, err)
	}
	if refErr.Error() != err.Error() {
		t.Fatalf("horizon errors differ:\nreference: %v\n   engine: %v", refErr, err)
	}
}
