package saath

// Engine-layer benchmark and allocation guard. The sparse long-tail
// workload is a long stream of short coflows separated by multi-δ idle
// gaps, plus occasional large stragglers that keep a thin active tail
// alive: the run loop takes arrivals off its cursor and runs epochs
// only while work is active, so the run's allocations are its per-coflow
// bookkeeping. BENCH_baseline.json's "engine_layer" section records
// that count; TestEngineLayerGuards fails past 1.25x of it. Wall-clock
// is not asserted here — timings belong to `go run ./bench` (make
// perf), never to tier-1. TestEpochCostsRatedFlows pins, with counters,
// that an epoch's flow passes follow the flows holding a rate. Run
// `make bench-engine` for the smoke + guards.

import (
	"encoding/json"
	"os"
	"testing"

	"saath/internal/obs"
)

// sparseTailTrace builds the sparse long-tail workload: single-flow
// coflows arriving every 64ms (8δ at the default δ=8ms) over rotating
// port pairs, with every 500th coflow inflated to a 64MB straggler
// whose ~half-second drain forms the long tail.
func sparseTailTrace() *Trace {
	const (
		numPorts = 32
		n        = 8000
		gap      = 64 * Millisecond
	)
	specs := make([]*Spec, n)
	for i := 0; i < n; i++ {
		size := Bytes(MB)
		if i%1000 == 250 {
			size = 64 * MB
		}
		specs[i] = &Spec{
			ID:      CoFlowID(i + 1),
			Arrival: Time(i) * gap,
			Flows: []FlowSpec{{
				Src:  PortID(i % numPorts),
				Dst:  PortID((i + 7) % numPorts),
				Size: size,
			}},
		}
	}
	return &Trace{Name: "sparse-tail", NumPorts: numPorts, Specs: specs}
}

// BenchmarkEngineEventSparse replays the sparse long-tail trace.
func BenchmarkEngineEventSparse(b *testing.B) {
	tr := sparseTailTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(tr, "saath", SimConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CoFlows) != len(tr.Specs) {
			b.Fatalf("completed %d coflows", len(res.CoFlows))
		}
	}
}

// engineBaseline mirrors BENCH_baseline.json's engine_layer section.
type engineBaseline struct {
	EngineLayer struct {
		EventSparse struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"event_sparse"`
	} `json:"engine_layer"`
}

// TestEngineLayerGuards holds the sparse long-tail replay's allocation
// count within 1.25x of the recorded baseline.
func TestEngineLayerGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	raw, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base engineBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	baseline := base.EngineLayer.EventSparse.AllocsPerOp
	if baseline == 0 {
		t.Fatal("event_sparse: missing from BENCH_baseline.json engine_layer")
	}
	tr := sparseTailTrace()
	got := testing.AllocsPerRun(1, func() {
		if _, err := Simulate(tr, "saath", SimConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("event_sparse: %.0f allocs/op (baseline %.0f)", got, baseline)
	if got > baseline*1.25 {
		t.Errorf("event_sparse: %.0f allocs/op exceeds 1.25x baseline %.0f", got, baseline)
	}
}

// TestEpochCostsRatedFlows pins the engine's per-epoch flow passes to
// the allocation with counters, not clocks: fifty four-flow coflows
// arrive together on one port pair, so all-or-none serves one of them at
// a time and parks the other forty-nine. The observe and advance passes
// may then visit each rated flow once each, plus — on the epochs near
// the end, when the few coflows left put the rated share above the
// density choice — less than one more coflow's worth; walking the
// pending flows instead would cost 400 visits an epoch here.
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
	t.Logf("%d epochs: %d rated flows, %d walked", c.Epochs, c.RatedFlows, c.FlowsWalked)
	if bound := 2*c.RatedFlows + c.Epochs*live; c.FlowsWalked > bound {
		t.Errorf("observe+advance walked %d flows over %d epochs, want <= 2 x %d rated + %d epochs x %d coflows = %d",
			c.FlowsWalked, c.Epochs, c.RatedFlows, c.Epochs, live, bound)
	}
}
