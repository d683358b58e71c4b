package testbed

import (
	"fmt"
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	_ "saath/internal/sched/aalo"  // register aalo
	_ "saath/internal/sched/clair" // register the clairvoyant policies
	_ "saath/internal/sched/uctcp" // register uc-tcp
	_ "saath/internal/sched/varys" // register varys
	"saath/internal/sim"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"
)

// maxMinExceptions names the registered policies whose testbed CCTs
// miss the simulator's rounded up to δ on the equivalence traces, each
// with the reason. Such a policy must keep missing on at least one
// CoFlow: once it holds, the mark comes off. varys and uc-tcp, the two
// policies that fill through fabric.MaxMinFairInto, are the ones
// expected here (ROADMAP 25(b)); on these traces they hold, and on
// SynthFB(1) they miss by one δ on 13 and 15 of 526 CoFlows.
var maxMinExceptions = map[string]string{}

// equivalenceTrace is a latency-shaped workload small enough for
// tier-1: 50 ports, 300 CoFlows.
func equivalenceTrace(seed int64) func() *trace.Trace {
	return func() *trace.Trace {
		cfg := latencyCfg(seed, 50)
		cfg.NumCoFlows = 300
		return trace.Synthesize(cfg, fmt.Sprintf("fb-lat-%d", seed))
	}
}

// TestTestbedIsSimulatorAtDelta pins the testbed as the simulator
// observed at δ: for every registered policy on two latency-shaped
// traces, each CoFlow's CCT through the real coordinator (RunJob)
// equals its CCT from sim.Run with the completion rounded up to the
// next δ boundary. Both apply a boundary's schedule over the interval
// after it; the simulator reports a completion at its exact time, the
// coordinator at the report that follows it. A policy in
// maxMinExceptions must instead miss on at least one CoFlow. The
// overload study's jobs hold the relation under admission, against
// the simulator on the trace filtered to the admitted CoFlows.
func TestTestbedIsSimulatorAtDelta(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	for name := range maxMinExceptions {
		if _, err := sched.New(name, sched.DefaultParams()); err != nil {
			t.Errorf("maxMinExceptions names %q: %v", name, err)
		}
	}
	for _, sn := range sched.Names() {
		if strings.HasPrefix(sn, "test-") {
			continue // this package's deliberately faulty policies (TestPanicCostsOneJob)
		}
		misses := 0
		for _, seed := range []int64{1, 2} {
			gen := equivalenceTrace(seed)
			s, err := sched.New(sn, sched.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(gen(), s, sim.Config{Delta: delta})
			if err != nil {
				t.Fatalf("%s on seed %d: sim: %v", sn, seed, err)
			}
			got, _, err := RunJob(sweep.Job{
				Trace: "fb-lat", Scheduler: sn, Seed: seed,
				Params: sched.DefaultParams(), Config: sim.Config{Delta: delta}, Gen: gen,
			}, Config{})
			if err != nil {
				t.Fatalf("%s on seed %d: testbed: %v", sn, seed, err)
			}
			tb := got.CCTByID()
			if len(tb) != len(want.CoFlows) {
				t.Errorf("%s on seed %d: %d CoFlows through the testbed, %d through the simulator", sn, seed, len(tb), len(want.CoFlows))
			}
			for _, c := range want.CoFlows {
				atDelta := (c.DoneAt+delta-1)/delta*delta - c.Arrival
				if cct, ok := tb[c.ID]; ok && cct == atDelta {
					continue
				}
				if _, ok := maxMinExceptions[sn]; !ok {
					t.Errorf("%s on seed %d: CoFlow %d has testbed CCT %v, want the simulator's %v rounded up to δ: %v", sn, seed, c.ID, tb[c.ID], c.CCT, atDelta)
				}
				misses++
			}
		}
		if why, ok := maxMinExceptions[sn]; ok && misses == 0 {
			t.Errorf("%s (recorded as an exception: %s) now holds the relation on every CoFlow: take it off maxMinExceptions", sn, why)
		}
	}

	// Under admission, on the overload study's inputs (saath at four
	// loads against its 50/s, burst-15 bucket): the coflows the
	// coordinator admits complete as the simulator completes the trace
	// filtered to them, observed at δ, and the job ends at the boundary
	// that follows both the last arrival and the last completion.
	st, err := study.Build("overload")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range st.Jobs() {
		got, rr, err := RunJob(j, Config{Admission: overloadAdmission})
		if err != nil {
			t.Fatalf("%s: testbed: %v", j.Key(), err)
		}
		tb := got.CCTByID()
		tr := j.Gen()
		var lastArrival coflow.Time
		admitted := tr.Specs[:0]
		for _, sp := range tr.Specs {
			lastArrival = max(lastArrival, sp.Arrival)
			if _, ok := tb[sp.ID]; ok {
				admitted = append(admitted, sp)
			}
		}
		tr.Specs = admitted
		if rr.Admitted != int64(len(admitted)) || len(admitted) != len(got.CoFlows) {
			t.Errorf("%s: %d admitted, %d of the trace's CoFlows completed through the testbed, %d results", j.Key(), rr.Admitted, len(admitted), len(got.CoFlows))
		}
		s, err := sched.New(j.Scheduler, j.Params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(tr, s, j.Config)
		if err != nil {
			t.Fatalf("%s: sim: %v", j.Key(), err)
		}
		delta := j.Config.Delta
		for _, c := range want.CoFlows {
			if atDelta := (c.DoneAt+delta-1)/delta*delta - c.Arrival; tb[c.ID] != atDelta {
				t.Errorf("%s: CoFlow %d has testbed CCT %v, want the simulator's %v rounded up to δ: %v", j.Key(), c.ID, tb[c.ID], c.CCT, atDelta)
			}
		}
		end := max((lastArrival+delta-1)/delta*delta, got.Makespan)
		if want := int(end/delta) + 1; got.Intervals != want {
			t.Errorf("%s: %d boundaries, want %d (last arrival %v, last completion %v)", j.Key(), got.Intervals, want, lastArrival, got.Makespan)
		}
	}
}
