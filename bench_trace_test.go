package saath

// Trace-layer microbenchmarks and their allocation-regression guard.
// Synthetic generation is the first step of every sweep job — a
// full-scale sharded study regenerates its workload for every
// (trace, variant, seed) cell — so generator overhead multiplies by
// the grid size. BENCH_baseline.json's "trace_layer" section records
// the allocation counts at the scenario-diversity introduction (fan
// validation); the guard (bench_guards_test.go) fails if a change
// regresses any generator past 1.25x of that baseline.

import (
	"testing"

	"saath/internal/trace"
)

// BenchmarkTraceSynthFB measures generating the default FB-like
// workload (526 coflows, 150 ports).
func BenchmarkTraceSynthFB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := trace.SynthFB(1); len(tr.Specs) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTraceSynthIncast measures generating the default incast
// workload (300 coflows fanning into 6 hotspots).
func BenchmarkTraceSynthIncast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := trace.SynthIncast(1); len(tr.Specs) == 0 {
			b.Fatal("empty trace")
		}
	}
}
