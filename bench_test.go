package saath

// Micro-benchmarks of the scheduler's hot paths and of one quick
// simulation. Run with
//
//	go test -bench=. -benchmem
//
// The paper's figures are catalog studies (saath-sim -study fig9, ...);
// the repo benchmark of end-to-end runs is bench/.

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/trace"
)

// --- Micro-benchmarks of the scheduler's hot paths (Table 2's cost
// drivers: ordering with LCoF, all-or-none admission, rate filling).

// benchCluster builds a randomized active set of n CoFlows on p ports
// for one scheduling round.
func benchCluster(n, p int) ([]*coflow.CoFlow, *fabric.Fabric) {
	tr := trace.Synthesize(trace.SynthConfig{
		Seed: 42, NumPorts: p, NumCoFlows: n,
		MeanInterArrival: 0, // all live at once: the busy case
		SingleFlowFrac:   0.23, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.4,
		SmallFracNarrow: 0.8, SmallFracWide: 0.4,
		MinSmall: coflow.MB, MaxSmall: 100 * coflow.MB,
		MinLarge: 100 * coflow.MB, MaxLarge: coflow.GB,
	}, "bench")
	active := make([]*coflow.CoFlow, len(tr.Specs))
	for i, s := range tr.Specs {
		active[i] = coflow.New(s)
	}
	return active, fabric.New(p, fabric.DefaultPortRate)
}

// The per-policy Schedule-round benchmarks live in bench_sched_test.go
// (BenchmarkSchedule, BenchmarkScheduleQuick) alongside their
// allocation-regression guards against BENCH_baseline.json.

func BenchmarkMaxMinFair(b *testing.B) {
	active, fab := benchCluster(200, 100)
	var demands []fabric.Demand
	for _, c := range active {
		for _, f := range c.Flows {
			demands = append(demands, fabric.Demand{Src: f.Src, Dst: f.Dst})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.MaxMinFairInto(nil, demands)
	}
}

func BenchmarkSimulateQuickFB(b *testing.B) {
	// The quick FB-like workload: the FB mix on 40 ports, 120 coflows.
	cfg := trace.DefaultFBConfig(9)
	cfg.NumPorts = 40
	cfg.NumCoFlows = 120
	cfg.MeanInterArrival = 40 * coflow.Millisecond
	cfg.MaxLarge = 2 * coflow.GB
	tr := trace.Synthesize(cfg, "bench-fb")
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, "saath", SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
