package saath

// Sweep-layer microbenchmarks and their allocation-regression guard.
// The scheduling hot path is already pinned by bench_sched_test.go;
// this file guards the orchestration layer on top of it — grid
// expansion, per-job Summary digestion and the tables rendered from
// the digests — so full-scale studies (thousands of jobs, sharded
// across processes) do not silently grow per-job overhead.
// BENCH_baseline.json's "sweep_layer" section records their allocation
// counts; the guard (bench_guards_test.go) fails if a change regresses
// any of them past 1.25x of that record.

import (
	"context"
	"io"
	"testing"

	"saath/internal/coflow"
	"saath/internal/report"
	"saath/internal/sweep"
	"saath/internal/telemetry"
)

// benchSweepSource is the tiny deterministic workload behind the
// sweep-layer measurements (simulation cost must not drown the
// orchestration cost being measured).
func benchSweepSource(name string) TraceSource {
	return SynthSource(name, func(seed int64) *Trace {
		return Synthesize(SynthConfig{
			Seed: seed, NumPorts: 10, NumCoFlows: 16,
			MeanInterArrival: 20 * coflow.Millisecond,
			SingleFlowFrac:   0.25, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
			SmallFracNarrow: 0.8, SmallFracWide: 0.5,
			MinSmall: 100 * coflow.KB, MaxSmall: coflow.MB,
			MinLarge: coflow.MB, MaxLarge: 20 * coflow.MB,
		}, name)
	})
}

// benchSweepGrid is the 24-job expansion subject: 2 traces × 2
// variants × 3 seeds × 2 schedulers.
func benchSweepGrid() sweep.Grid {
	p := DefaultParams()
	return sweep.Grid{
		Traces:     []TraceSource{benchSweepSource("bench-a"), benchSweepSource("bench-b")},
		Schedulers: []string{"aalo", "saath"},
		Seeds:      []int64{1, 2, 3},
		Variants: []sweep.Variant{
			{Name: "delta=8ms", Params: p, Config: SimConfig{Delta: 8 * coflow.Millisecond}},
			{Name: "delta=16ms", Params: p, Config: SimConfig{Delta: 16 * coflow.Millisecond}},
		},
	}
}

// benchJobResult produces one completed job for Summary digestion
// measurements.
func benchJobResult(tb testing.TB) sweep.JobResult {
	tb.Helper()
	g := benchSweepGrid()
	g.Traces = g.Traces[:1]
	g.Schedulers = g.Schedulers[:1]
	g.Seeds = g.Seeds[:1]
	g.Variants = g.Variants[:1]
	res := sweep.Run(context.Background(), g.Jobs(), sweep.Options{Parallel: 1})
	if err := res.FirstErr(); err != nil {
		tb.Fatal(err)
	}
	return res.Jobs[0]
}

// benchSummaryTables runs the 24-job bench grid once with every
// telemetry consumer on and returns the step the summary_tables guard
// measures: rendering each of the Summary's tables from its entries.
func benchSummaryTables(tb testing.TB) func() {
	tb.Helper()
	g := benchSweepGrid()
	g.Telemetry = telemetry.Spec{Enabled: true, QueueTransitions: true, PortHeatmap: true}
	sum := sweep.NewSummary()
	res := sweep.Run(context.Background(), g.Jobs(), sweep.Options{Parallel: 1, Collectors: []sweep.Collector{sum}})
	if err := res.FirstErr(); err != nil {
		tb.Fatal(err)
	}
	return func() {
		for _, t := range []*report.Table{
			sum.CCTTable("cct"),
			sum.SpeedupTable("speedup", "aalo"),
			sum.TelemetryTable("telemetry"),
			sum.QueueTransitionTable("transitions"),
			sum.PortHeatmapTable("heatmap", 4),
		} {
			if err := t.Render(io.Discard); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepGridJobs measures expanding the 24-job declarative
// grid into bound jobs (the per-study compile step).
func BenchmarkSweepGridJobs(b *testing.B) {
	g := benchSweepGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if jobs := g.Jobs(); len(jobs) != 24 {
			b.Fatalf("jobs = %d", len(jobs))
		}
	}
}

// BenchmarkSweepSummaryAdd measures digesting one completed job into
// the aggregate (the per-job collector step every sweep and shard
// pays).
func BenchmarkSweepSummaryAdd(b *testing.B) {
	jr := benchJobResult(b)
	sum := sweep.NewSummary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.Add(jr)
	}
}
