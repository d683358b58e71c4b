package saath

// Engine-layer benchmark and allocation guard. The sparse long-tail
// workload is a long stream of short coflows separated by multi-δ idle
// gaps, plus occasional large stragglers that keep a thin active tail
// alive: the run loop takes arrivals off its cursor and runs epochs
// only while work is active, so the run's allocations are its per-coflow
// bookkeeping. BENCH_baseline.json's "engine_layer" section records
// that count and bench_guards_test.go holds the replay to it. The dense
// burst is the other shape: a hundred wide coflows 5 ms apart, so
// thousands of flow indices are live at once and the tables keyed by
// them grow through most of the replay; the section records the bytes
// that replay allocates, and those of a sparse-longtail-shaped replay,
// whose CoFlows arrive one or two live at a time. Wall-clock is not asserted here — timings
// belong to `go run ./bench` (make perf), never to tier-1.

import (
	"testing"

	"saath/internal/trace"
)

// denseBurstTrace builds a dense burst on 150 ports: 100 coflows, mostly
// wide and large, arriving 5 ms apart, so the live set peaks in the
// hundreds of flows per port.
func denseBurstTrace() *Trace {
	return trace.Synthesize(trace.SynthConfig{
		Seed:             1,
		NumPorts:         150,
		NumCoFlows:       100,
		MeanInterArrival: 5 * Millisecond,
		SingleFlowFrac:   0.05,
		EqualLengthFrac:  0.50 / 0.77,
		WideFracNarrowCF: 0.80,
		SmallFracNarrow:  0.20,
		SmallFracWide:    0.20,
		MinSmall:         1 * MB,
		MaxSmall:         100 * MB,
		MinLarge:         100 * MB,
		MaxLarge:         2 * GB,
	}, "dense-burst")
}

// sparseLongtailTrace builds a trace shaped like the benchmark's
// sparse-longtail workload at a tenth of its length: 2,000 small
// CoFlows, mostly narrow, 400 ms apart on 150 ports, so one or two are
// live at a time. A replay that hands each retired CoFlow's flow storage
// to the next arrival allocates the flows of that live set, not of the
// trace.
func sparseLongtailTrace() *Trace {
	return trace.Synthesize(trace.SynthConfig{
		Seed:             1,
		NumPorts:         150,
		NumCoFlows:       2000,
		MeanInterArrival: 400 * Millisecond,
		SingleFlowFrac:   0.23,
		EqualLengthFrac:  0.50 / 0.77,
		WideFracNarrowCF: 0.05,
		SmallFracNarrow:  1,
		SmallFracWide:    1,
		MinSmall:         1 * MB,
		MaxSmall:         20 * MB,
		MinLarge:         20 * MB,
		MaxLarge:         20 * MB,
	}, "sparse-longtail")
}

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
