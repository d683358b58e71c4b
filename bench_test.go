package saath

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (deliverable (d) in DESIGN.md). Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN / BenchmarkTableN measures the cost of producing
// that experiment's data and, on the first iteration, prints the rows
// or series the paper reports. Workloads use the quick-scale
// environment (see internal/experiments); cmd/experiments regenerates
// the same output at full published scale.

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/experiments"
	"saath/internal/fabric"
	"saath/internal/report"
	"saath/internal/trace"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns the shared quick-scale experiment environment; sharing
// it across benchmarks lets memoized simulation results be reused.
func env() *experiments.Env {
	benchEnvOnce.Do(func() { benchEnv = experiments.NewEnv(experiments.ScaleQuick) })
	return benchEnv
}

var printed sync.Map

// emit prints the tables once per benchmark name, so -bench runs show
// each figure's data exactly once regardless of b.N.
func emit(b *testing.B, tables []*report.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if _, dup := printed.LoadOrStore(b.Name(), true); dup {
		return
	}
	fmt.Fprintf(os.Stdout, "\n--- %s ---\n", b.Name())
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1OutOfSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig1()
		emit(b, tables, err)
	}
}

func BenchmarkFig2WidthAndDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig2()
		emit(b, tables, err)
	}
}

func BenchmarkFig3ClairvoyantPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig3()
		emit(b, tables, err)
	}
}

func BenchmarkFig9Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig9()
		emit(b, tables, err)
	}
}

func BenchmarkFig10Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig10()
		emit(b, tables, err)
	}
}

func BenchmarkFig11BinsFB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig11()
		emit(b, tables, err)
	}
}

func BenchmarkFig12BinsOSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig12()
		emit(b, tables, err)
	}
}

func BenchmarkFig13FCTDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig13()
		emit(b, tables, err)
	}
}

func BenchmarkFig14Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig14()
		emit(b, tables, err)
	}
}

func BenchmarkTable2SchedulingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Table2()
		emit(b, tables, err)
	}
}

func BenchmarkFig15Testbed(b *testing.B) {
	cfg := experiments.DefaultTestbedConfig()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig15(cfg)
		emit(b, tables, err)
	}
}

func BenchmarkFig16JobCompletion(b *testing.B) {
	cfg := experiments.DefaultTestbedConfig()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig16(cfg)
		emit(b, tables, err)
	}
}

func BenchmarkFig17SJFSuboptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().Fig17()
		emit(b, tables, err)
	}
}

func BenchmarkAblationWorkConservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().AblationWorkConservation()
		emit(b, tables, err)
	}
}

func BenchmarkAblationContentionMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().AblationContentionMetric()
		emit(b, tables, err)
	}
}

func BenchmarkAblationDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := env().AblationDynamics()
		emit(b, tables, err)
	}
}

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
		fab.MaxMinFair(demands)
	}
}

func BenchmarkSimulateQuickFB(b *testing.B) {
	tr := trace.Synthesize(experiments.QuickFBConfig(9), "bench-fb")
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, "saath", SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrototypeRegisterToComplete(b *testing.B) {
	// One small CoFlow through the real coordinator/agent path; this
	// measures prototype latency floor (control sync + data plane).
	s, err := NewScheduler("saath", DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: s, NumPorts: 2, PortRate: Rate(50e6), Delta: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	go coord.Serve()
	defer coord.Close()
	agents := make([]*Agent, 2)
	for i := range agents {
		agents[i], err = NewAgent(AgentConfig{Port: i, CoordinatorAddr: coord.ControlAddr(), StatsInterval: 5 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		defer agents[i].Close()
	}
	client := NewClient(coord.HTTPAddr())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := &Spec{ID: CoFlowID(i + 1), Flows: []FlowSpec{{Src: 0, Dst: 1, Size: 64 * KB}}}
		if err := client.Register(spec); err != nil {
			b.Fatal(err)
		}
		if _, err := client.WaitForResults(i+1, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
