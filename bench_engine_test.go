package saath

// Engine-layer benchmarks and the tick/event allocation guard.
// The sparse long-tail workload is the event engine's home turf: a
// long stream of short coflows separated by multi-δ idle gaps, plus
// occasional large stragglers that keep a thin active tail alive. The
// tick engine pays an O(pending) admission scan at every δ boundary
// and an O(pending) next-arrival scan per idle gap — O(N²) over the
// trace — while the event engine pops arrivals off a heap and runs
// epochs only while work is active. BENCH_baseline.json's
// "engine_layer" section records the allocation counts at the
// event-engine introduction; TestEngineLayerGuards fails if either
// loop regresses its count past 1.25x baseline. Wall-clock is not
// asserted here — timings belong to `go run ./bench` (make perf), never
// to tier-1. Run `make bench-engine` for the smoke + guard.

import (
	"encoding/json"
	"os"
	"testing"
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

func benchEngineSparse(b *testing.B, mode EngineMode) {
	tr := sparseTailTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(tr, "saath", SimConfig{Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CoFlows) != len(tr.Specs) {
			b.Fatalf("completed %d coflows", len(res.CoFlows))
		}
	}
}

// BenchmarkEngineTickSparse replays the sparse long-tail trace on the
// fixed-δ tick loop.
func BenchmarkEngineTickSparse(b *testing.B) { benchEngineSparse(b, ModeTick) }

// BenchmarkEngineEventSparse replays the same trace on the
// discrete-event loop; results are byte-identical by contract.
func BenchmarkEngineEventSparse(b *testing.B) { benchEngineSparse(b, ModeEvent) }

// engineBaseline mirrors BENCH_baseline.json's engine_layer section.
type engineBaseline struct {
	EngineLayer struct {
		TickSparse struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"tick_sparse"`
		EventSparse struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"event_sparse"`
	} `json:"engine_layer"`
}

// TestEngineLayerGuards enforces the engine's deterministic contract
// on the sparse long-tail workload: identical results from both loops
// and allocation counts within 1.25x of the recorded baselines.
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

	tr := sparseTailTrace()
	run := func(mode EngineMode) *SimResult {
		t.Helper()
		res, err := Simulate(tr, "saath", SimConfig{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	tickRes, eventRes := run(ModeTick), run(ModeEvent)
	if tickRes.AvgCCT() != eventRes.AvgCCT() || tickRes.Makespan != eventRes.Makespan {
		t.Fatalf("modes disagree: tick CCT=%v makespan=%v, event CCT=%v makespan=%v",
			tickRes.AvgCCT(), tickRes.Makespan, eventRes.AvgCCT(), eventRes.Makespan)
	}

	checkAllocs := func(name string, baseline, got float64) {
		t.Helper()
		if baseline == 0 {
			t.Errorf("%s: missing from BENCH_baseline.json engine_layer", name)
			return
		}
		if limit := baseline * 1.25; got > limit {
			t.Errorf("%s: %.0f allocs/op exceeds 1.25x baseline %.0f", name, got, baseline)
		}
	}
	checkAllocs("tick_sparse", base.EngineLayer.TickSparse.AllocsPerOp,
		testing.AllocsPerRun(1, func() { run(ModeTick) }))
	checkAllocs("event_sparse", base.EngineLayer.EventSparse.AllocsPerOp,
		testing.AllocsPerRun(1, func() { run(ModeEvent) }))
}
