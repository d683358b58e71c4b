package sim

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// countersTrace exercises every event kind: a DAG edge (flow_done),
// staggered arrivals, and pipelined availability.
func countersTrace() *trace.Trace {
	return &trace.Trace{Name: "counted", NumPorts: 4, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 4 * coflow.MB}}},
		{ID: 2, Arrival: 3 * coflow.Millisecond, Flows: []coflow.FlowSpec{{Src: 2, Dst: 3, Size: 2 * coflow.MB}}},
		{ID: 3, Arrival: 0, DependsOn: []coflow.CoFlowID{1},
			Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: coflow.MB}}},
	}}
}

func TestCountersEventMode(t *testing.T) {
	cfg := Config{
		Pipelining: &Pipelining{Seed: 1, Frac: 1.0, AvailDelay: 16 * coflow.Millisecond},
	}
	cfg.Probes = []telemetry.Probe{telemetry.NewSuite(telemetry.Spec{Enabled: true})}
	c := &obs.EngineCounters{}
	cfg.Counters = c
	res := runOn(t, countersTrace(), "saath", cfg)

	if c.Epochs != int64(res.Intervals) || c.Schedule.Count != c.Epochs {
		t.Errorf("epochs = %d, schedule samples = %d, intervals = %d", c.Epochs, c.Schedule.Count, res.Intervals)
	}
	if c.Admitted != 3 || c.Retired != 3 {
		t.Errorf("admitted = %d retired = %d, want 3/3", c.Admitted, c.Retired)
	}
	if res.Ports != 4 {
		t.Errorf("result ports = %d, want 4", res.Ports)
	}
	var byKind int64
	for _, n := range c.EventsByKind {
		byKind += n
	}
	if byKind != c.EventsDispatched || c.EventsDispatched == 0 {
		t.Errorf("dispatched = %d, by-kind sum = %d", c.EventsDispatched, byKind)
	}
	if got := c.EventsByKind[eventArrival]; got != 3 {
		t.Errorf("arrival events = %d, want 3", got)
	}
	if got := c.EventsByKind[eventEpoch]; got != int64(res.Intervals) {
		t.Errorf("epoch events = %d, intervals = %d", got, res.Intervals)
	}
	if c.EventsByKind[eventFlowDone] == 0 {
		t.Error("DAG trace dispatched no flow_done events")
	}
	if c.EventsByKind[eventAvail] == 0 {
		t.Error("pipelined trace dispatched no avail events")
	}
	if c.HeapPushes != c.EventsDispatched-2 {
		// Every pushed event pops in a run-to-completion simulation; the
		// two dependency-free arrivals come from the cursor, not the heap.
		t.Errorf("pushes = %d, dispatched = %d", c.HeapPushes, c.EventsDispatched)
	}
	if c.HeapMax < 2 {
		t.Errorf("heap high-water = %d, want >= 2", c.HeapMax)
	}
}

// TestCountersDoNotPerturbResult is the out-of-band guarantee: the
// same run with and without counters attached produces field-identical
// results.
func TestCountersDoNotPerturbResult(t *testing.T) {
	cfg := Config{
		Dynamics:   &Dynamics{Seed: 2, StragglerProb: 0.5, Slowdown: 2, RestartProb: 0.5},
		Pipelining: &Pipelining{Seed: 3, Frac: 0.5, AvailDelay: 16 * coflow.Millisecond},
	}
	bare := runOn(t, countersTrace(), "saath", cfg)
	counted := cfg
	counted.Counters = &obs.EngineCounters{}
	observed := runOn(t, countersTrace(), "saath", counted)
	sameResult(t, "counters", bare, observed)
}

// TestHeapHoldsOnlyDynamicEvents pins the arrival cursor with counters,
// not clocks: on a dependency-free, un-pipelined trace the heap never
// holds more than the one pending epoch, however many coflows the trace
// has, and the only pushes are the epochs themselves.
func TestHeapHoldsOnlyDynamicEvents(t *testing.T) {
	for _, n := range []int{10, 1000} {
		tr := &trace.Trace{Name: "sparse", NumPorts: 4}
		for i := 0; i < n; i++ {
			tr.Specs = append(tr.Specs, &coflow.Spec{
				ID: coflow.CoFlowID(i + 1), Arrival: coflow.Time(i) * 20 * coflow.Millisecond,
				Flows: []coflow.FlowSpec{{Src: coflow.PortID(i % 4), Dst: coflow.PortID((i + 1) % 4), Size: 2 * coflow.MB}},
			})
		}
		c := &obs.EngineCounters{}
		res := runOn(t, tr, "saath", Config{Counters: c})
		if c.HeapMax > 2 {
			t.Errorf("n=%d: heap high-water = %d, want <= 2", n, c.HeapMax)
		}
		if c.HeapPushes != int64(res.Intervals) {
			t.Errorf("n=%d: heap pushes = %d, epochs = %d", n, c.HeapPushes, res.Intervals)
		}
		if got := c.EventsByKind[eventArrival]; got != int64(n) {
			t.Errorf("n=%d: arrival events = %d", n, got)
		}
	}
}

// TestEngineEventCountersZeroAlloc extends the steady-state guard to
// the counting path: attaching EngineCounters adds zero allocations per
// dispatch.
func TestEngineEventCountersZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := steadyEngine(t, "saath")
	e.cfg.Counters = &obs.EngineCounters{}
	n := testing.AllocsPerRun(100, func() {
		if ok, err := e.step(e.cfg.Delta); !ok || err != nil {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	})
	if n != 0 {
		t.Errorf("counted steady-state event dispatch allocates %.1f times, want 0", n)
	}
}
