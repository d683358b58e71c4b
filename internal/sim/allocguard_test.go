package sim

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/trace"
)

// steadyEngine builds an engine mid-run: a contended active set of
// long coflows (no completions for many intervals), stepped through
// every admission and a few real epochs so every piece of scratch —
// the allocation vector, the scheduler's queue/bucket/contention state,
// the validation ledgers, the stats reservoir, the event heap — is
// grown. What remains is the recurring schedule epoch.
func steadyEngine(t testing.TB, scheduler string) *engine {
	t.Helper()
	tr := &trace.Trace{Name: "steady", NumPorts: 12}
	for i := 0; i < 24; i++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(i + 1), Arrival: 0}
		for j := 0; j <= i%3; j++ {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{
				Src:  coflow.PortID((i + j) % 12),
				Dst:  coflow.PortID((i + j + 5) % 12),
				Size: 10 * coflow.GB, // far too large to complete during the guard
			})
		}
		tr.Specs = append(tr.Specs, spec)
	}
	s, err := sched.New(scheduler, sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(tr, s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.loadArrivals()
	for e.result.Intervals < 3 {
		if ok, err := e.step(e.cfg.Delta); !ok || err != nil {
			t.Fatalf("warm step: ok=%v err=%v", ok, err)
		}
	}
	return e
}

// TestEngineEventSteadyStateZeroAlloc is the acceptance guard for the
// dense-index hot path: a steady-state event dispatch — pop the epoch,
// schedule, audit (full validation on), advance, push the next epoch —
// performs zero heap allocations. Everything per-interval (allocation
// vector, queue/bucket/contention scratch, validation ledgers, sorted
// snapshot) is reused.
func TestEngineEventSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, scheduler := range []string{"saath", "aalo", "uc-tcp"} {
		e := steadyEngine(t, scheduler)
		n := testing.AllocsPerRun(100, func() {
			if ok, err := e.step(e.cfg.Delta); !ok || err != nil {
				t.Fatalf("step: ok=%v err=%v", ok, err)
			}
		})
		if n != 0 {
			t.Errorf("%s: steady-state event dispatch allocates %.1f times, want 0", scheduler, n)
		}
	}
}
