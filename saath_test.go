package saath

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/runtime"
	"saath/internal/sched"
	"saath/internal/sweep"
	"saath/internal/trace"
)

func TestSchedulersRegistered(t *testing.T) {
	have := map[string]bool{}
	for _, n := range sched.Names() {
		have[n] = true
	}
	for _, want := range []string{
		"saath", "saath/an+fifo", "saath/an+pf+fifo", "saath/nowc",
		"saath/width-contention", "aalo", "varys", "scf", "srtf",
		"sjf-duration", "lwtf", "uc-tcp",
	} {
		if !have[want] {
			t.Errorf("scheduler %q not registered (have %v)", want, sched.Names())
		}
	}
}

// TestPublicSweepFlow drives the facade's sweep surface: grid
// expansion, parallel execution, aggregation.
func TestPublicSweepFlow(t *testing.T) {
	cfg := SynthConfig{
		Seed: 4, NumPorts: 10, NumCoFlows: 15,
		MeanInterArrival: 20 * Millisecond,
		SingleFlowFrac:   0.3, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
		SmallFracNarrow: 0.8, SmallFracWide: 0.5,
		MinSmall: 100 * KB, MaxSmall: MB,
		MinLarge: MB, MaxLarge: 10 * MB,
	}
	grid := sweep.Grid{
		Traces: []TraceSource{SynthSource("tiny", func(seed int64) *Trace {
			c := cfg
			c.Seed = seed
			return Synthesize(c, "tiny")
		})},
		Schedulers: []string{"aalo", "saath"},
		Seeds:      []int64{1, 2},
		Params:     DefaultParams(),
	}
	jobs := grid.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(jobs))
	}
	sum := sweep.NewSummary()
	res := sweep.Run(context.Background(), jobs, sweep.Options{Parallel: 4, Collectors: []sweep.Collector{sum}})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	tbl := sum.CCTTable("cct")
	if len(tbl.Rows) != 2 {
		t.Fatalf("aggregate rows = %d, want 2 (one per scheduler)", len(tbl.Rows))
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	if _, err := sched.New("nope", DefaultParams()); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	s, err := sched.New("saath", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "saath" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestPublicSimulateFlow(t *testing.T) {
	cfg := SynthConfig{
		Seed: 4, NumPorts: 12, NumCoFlows: 25,
		MeanInterArrival: 20 * Millisecond,
		SingleFlowFrac:   0.3, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
		SmallFracNarrow: 0.8, SmallFracWide: 0.5,
		MinSmall: MB, MaxSmall: 20 * MB,
		MinLarge: 20 * MB, MaxLarge: 200 * MB,
	}
	tr := Synthesize(cfg, "api-test")
	saathRes, err := Simulate(tr, "saath", SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aaloRes, err := Simulate(tr, "aalo", SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(saathRes.CoFlows) != 25 || len(aaloRes.CoFlows) != 25 {
		t.Fatalf("completions: %d / %d", len(saathRes.CoFlows), len(aaloRes.CoFlows))
	}
	sp := Speedups(aaloRes, saathRes)
	if len(sp) != 25 {
		t.Fatalf("speedups = %d", len(sp))
	}
	sum := SummarizeSpeedup(aaloRes, saathRes)
	if sum.N != 25 || sum.Median <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if !strings.Contains(sum.String(), "median") {
		t.Fatal("summary formatting")
	}
}

func TestSimulateWithCustomParams(t *testing.T) {
	tr := Synthesize(SynthConfig{
		Seed: 1, NumPorts: 4, NumCoFlows: 5,
		MeanInterArrival: 10 * Millisecond,
		SingleFlowFrac:   1, EqualLengthFrac: 1, WideFracNarrowCF: 0,
		SmallFracNarrow: 1, SmallFracWide: 1,
		MinSmall: MB, MaxSmall: 5 * MB, MinLarge: 5 * MB, MaxLarge: 10 * MB,
	}, "custom")
	p := DefaultParams()
	p.Queues.StartThreshold = 100 * MB
	p.DeadlineFactor = 4
	res, err := SimulateWith(tr, "saath", p, SimConfig{Delta: 4 * Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoFlows) != 5 {
		t.Fatalf("completions = %d", len(res.CoFlows))
	}
}

func TestSimulateDoesNotMutateTrace(t *testing.T) {
	tr := trace.SynthFB(2)
	before := tr.Specs[0].Arrival
	if _, err := Simulate(&Trace{Name: "sub", NumPorts: tr.NumPorts, Specs: tr.Specs[:10]}, "uc-tcp", SimConfig{}); err != nil {
		t.Fatal(err)
	}
	if tr.Specs[0].Arrival != before {
		t.Fatal("trace mutated by simulation")
	}
}

func TestLoadTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	content := "4 1\n0 5 1 0 1 1:2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Specs) != 1 || tr.Specs[0].TotalSize() != 2*MB {
		t.Fatalf("trace = %+v", tr.Specs)
	}
	if _, err := trace.ParseFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGbpsRate(t *testing.T) {
	if coflow.GbpsRate(1) != Rate(125e6) {
		t.Fatal("unit conversion")
	}
}

func TestPublicPrototypeEndToEnd(t *testing.T) {
	s, err := sched.New("saath", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := runtime.NewCoordinator(runtime.CoordinatorConfig{
		Scheduler: s,
		NumPorts:  2,
		PortRate:  Rate(20e6),
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := coord.AttachInproc(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AttachInproc(1); err != nil {
		t.Fatal(err)
	}
	spec := &Spec{ID: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Size: 200 * KB}}}
	var now Time
	if err := coord.Register(spec, now); err != nil {
		t.Fatal(err)
	}
	const delta = 10 * Millisecond
	for n, live := 0, coord.StepSchedule(now); live > 0; n++ {
		if n > 100 {
			t.Fatal("coflow still live after 100 boundaries")
		}
		now += delta
		sender.Step(delta)
		coord.ReportInproc([]*runtime.InprocAgent{sender}, now)
		live = coord.StepSchedule(now)
	}
	res := coord.Results()
	// 200 KiB at 20 MB/s is 10.24 ms of sending: two boundaries behind
	// the first schedule.
	if len(res) != 1 || res[0].ID != 1 || res[0].CCT != 2*delta {
		t.Fatalf("results = %+v, want coflow 1 at a CCT of %v", res, 2*delta)
	}
}
