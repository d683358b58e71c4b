package saath

// Trace-layer microbenchmarks and their allocation-regression guard.
// Synthetic generation is the first step of every sweep job — a
// full-scale sharded study regenerates its workload for every
// (trace, variant, seed) cell — so generator overhead multiplies by
// the grid size. BENCH_baseline.json's "trace_layer" section records
// the allocation counts at the scenario-diversity introduction (fan
// validation + trace.Mix); the guard (bench_guards_test.go) fails if a
// change regresses any generator past 1.25x of that baseline.

import (
	"testing"

	"saath/internal/trace"
)

// benchMixComponents pairs a reduced FB draw with an incast draw on a
// shared port space — the trace-mix study's shape at bench scale.
func benchMixComponents() []trace.MixComponent {
	return []trace.MixComponent{
		{Name: "fb", Weight: 1, Gen: func(seed int64) *Trace {
			cfg := trace.DefaultFBConfig(seed)
			cfg.NumPorts, cfg.NumCoFlows = 48, 200
			return trace.Synthesize(cfg, "fb-bench")
		}},
		{Name: "incast", Weight: 1, Gen: func(seed int64) *Trace {
			tr, err := trace.SynthesizeIncast(trace.FanConfig{
				Seed: seed, NumPorts: 48, NumCoFlows: 200,
				MeanInterArrival: 20 * Millisecond,
				Degree:           10, Skew: 0.6, Hotspots: 5,
				MinSize: MB, MaxSize: 128 * MB,
			}, "incast-bench")
			if err != nil {
				panic(err)
			}
			return tr
		}},
	}
}

func benchMix(seed int64) *Trace {
	tr, err := trace.Mix("mix-bench", trace.MixConfig{Seed: seed, NumCoFlows: 300}, benchMixComponents()...)
	if err != nil {
		panic(err)
	}
	return tr
}

// BenchmarkTraceSynthFB measures generating the default FB-like
// workload (526 coflows, 150 ports).
func BenchmarkTraceSynthFB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := SynthFB(1); len(tr.Specs) == 0 {
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

// BenchmarkTraceMix measures the full mix pipeline: generating both
// components and interleaving 300 coflows.
func BenchmarkTraceMix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := benchMix(1); len(tr.Specs) != 300 {
			b.Fatalf("mixed %d coflows", len(tr.Specs))
		}
	}
}
