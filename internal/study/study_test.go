package study

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/trace"

	_ "saath/internal/core"        // register saath
	_ "saath/internal/sched/aalo"  // register aalo
	_ "saath/internal/sched/uctcp" // register uc-tcp (catalog studies)
	_ "saath/internal/sched/varys" // register varys (catalog studies)
)

// tinySource is a small synthetic workload so a full study runs in
// well under a second even with -race.
func tinySource(name string) sweep.TraceSource {
	return sweep.SynthSource(name, func(seed int64) *trace.Trace {
		return trace.Synthesize(trace.SynthConfig{
			Seed: seed, NumPorts: 10, NumCoFlows: 16,
			MeanInterArrival: 20 * coflow.Millisecond,
			SingleFlowFrac:   0.25, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
			SmallFracNarrow: 0.8, SmallFracWide: 0.5,
			MinSmall: 100 * coflow.KB, MaxSmall: coflow.MB,
			MinLarge: coflow.MB, MaxLarge: 20 * coflow.MB,
		}, name)
	})
}

func tinyStudy(t *testing.T, opts ...Option) *Study {
	t.Helper()
	base := []Option{
		WithTraces(tinySource("tiny")),
		WithSchedulers("aalo", "saath"),
		WithSeeds(1, 2),
		WithBaseline("aalo"),
	}
	st, err := New("tiny-study", append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the expected error
	}{
		{"no traces", []Option{WithSchedulers("saath")}, "no traces"},
		{"no schedulers", []Option{WithTraces(tinySource("t"))}, "no schedulers"},
		{"unknown scheduler", []Option{WithTraces(tinySource("t")), WithSchedulers("nope")}, "unknown scheduler"},
		{"duplicate scheduler", []Option{WithTraces(tinySource("t")), WithSchedulers("saath", "saath")}, "duplicate scheduler"},
		{"duplicate trace", []Option{WithTraces(tinySource("t"), tinySource("t")), WithSchedulers("saath")}, "duplicate trace"},
		{"duplicate seed", []Option{WithTraces(tinySource("t")), WithSchedulers("saath"), WithSeeds(3, 3)}, "duplicate seed"},
		{"duplicate variant", []Option{WithTraces(tinySource("t")), WithSchedulers("saath"),
			WithParamGrid(sweep.Variant{Name: "v"}, sweep.Variant{Name: "v"})}, "duplicate variant"},
		{"bad baseline", []Option{WithTraces(tinySource("t")), WithSchedulers("saath"), WithBaseline("aalo")}, "baseline"},
		{"bad variant scheduler", []Option{WithTraces(tinySource("t")),
			WithParamGrid(sweep.Variant{Name: "v", Schedulers: []string{"nope"}})}, "unknown scheduler"},
		{"probes in study config", []Option{WithTraces(tinySource("t")), WithSchedulers("saath"),
			WithSimConfig(sim.Config{Probes: []telemetry.Probe{telemetry.NewSuite(telemetry.Spec{})}})}, "probes"},
		{"probes in variant config", []Option{WithTraces(tinySource("t")), WithSchedulers("saath"),
			WithParamGrid(sweep.Variant{Name: "v",
				Config: sim.Config{Probes: []telemetry.Probe{telemetry.NewSuite(telemetry.Spec{})}}})}, "probes"},
	}
	for _, tc := range cases {
		if _, err := New("bad", tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(""); err == nil {
		t.Error("empty study name accepted")
	}
}

// TestVariantInheritance: variants that leave Params/Config zero
// inherit the study-level settings, so a parameter grid only spells
// out the knob it varies.
func TestVariantInheritance(t *testing.T) {
	p := sched.DefaultParams()
	p.DeadlineFactor = 7
	cfg := sim.Config{Delta: 16 * coflow.Millisecond, PortRate: coflow.GbpsRate(10)}
	explicit := sched.DefaultParams()
	st, err := New("inherit",
		WithTraces(tinySource("t")),
		WithSchedulers("saath"),
		WithParams(p),
		WithSimConfig(cfg),
		WithParamGrid(
			sweep.Variant{Name: "inherits"},
			sweep.Variant{Name: "explicit", Params: explicit, Config: sim.Config{Delta: 4 * coflow.Millisecond}},
		))
	if err != nil {
		t.Fatal(err)
	}
	jobs := st.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	if jobs[0].Params.DeadlineFactor != 7 || jobs[0].Config.Delta != 16*coflow.Millisecond {
		t.Errorf("inheriting variant: params/config not inherited: %+v %+v", jobs[0].Params, jobs[0].Config)
	}
	if jobs[1].Params.DeadlineFactor == 7 || jobs[1].Config.Delta != 4*coflow.Millisecond {
		t.Errorf("explicit variant overridden: %+v %+v", jobs[1].Params, jobs[1].Config)
	}
	// Config inheritance is per-field: spelling out Delta must not
	// silently reset the study-level PortRate.
	if jobs[1].Config.PortRate != coflow.GbpsRate(10) {
		t.Errorf("explicit-delta variant lost study PortRate: %+v", jobs[1].Config)
	}
}

// TestVariantSchedulerRestriction: a variant with its own scheduler
// list expands only those policies (the Fig 14e shape).
func TestVariantSchedulerRestriction(t *testing.T) {
	st := tinyStudy(t, WithParamGrid(
		sweep.Variant{Name: "both"},
		sweep.Variant{Name: "saath-only", Schedulers: []string{"saath"}},
	))
	jobs := st.Jobs()
	// 1 trace × (2 scheds + 1 sched) × 2 seeds
	if len(jobs) != 6 {
		t.Fatalf("jobs = %d, want 6", len(jobs))
	}
	for _, j := range jobs {
		if j.Variant == "saath-only" && j.Scheduler != "saath" {
			t.Errorf("restricted variant expanded %q", j.Scheduler)
		}
	}
}

func TestStudyRunDefaultTables(t *testing.T) {
	st := tinyStudy(t)
	res, err := st.Run(context.Background(), Pool{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	tables, err := res.Tables()
	if err != nil {
		t.Fatal(err)
	}
	// Default derived view: CCT table + speedup table (baseline set,
	// telemetry off).
	if len(tables) != 2 {
		t.Fatalf("default tables = %d, want 2", len(tables))
	}
	var sb strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"per-scheduler CCT", "speedup over aalo", "saath"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("default tables missing %q:\n%s", want, sb.String())
		}
	}
}

func TestDerivedCCTCDF(t *testing.T) {
	st := tinyStudy(t, WithDerived(DerivedCCTCDF("tiny", 10)))
	res, err := st.Run(context.Background(), Pool{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := res.Tables()
	if err != nil {
		t.Fatal(err)
	}
	// One CDF table per (trace, scheduler) cell.
	if len(tables) != 2 {
		t.Fatalf("cdf tables = %d, want 2", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 || len(tbl.Rows) > 10 {
			t.Errorf("%s: %d rows, want 1..10", tbl.Title, len(tbl.Rows))
		}
	}
}

func TestParseShard(t *testing.T) {
	good := map[string]Sharded{
		"0/1": {Index: 0, Count: 1},
		"0/4": {Index: 0, Count: 4},
		"3/4": {Index: 3, Count: 4},
	}
	for in, want := range good {
		sh, err := ParseShard(in)
		if err != nil || sh.Index != want.Index || sh.Count != want.Count {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", in, sh, err, want)
		}
	}
	for _, in := range []string{"", "1", "a/b", "4/4", "-1/2", "1/0"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}

// TestShardedPartition: the shards of a grid are a disjoint cover.
func TestShardedPartition(t *testing.T) {
	jobs := tinyStudy(t).Jobs()
	seen := make(map[int]int)
	for i := 0; i < 3; i++ {
		sh := Sharded{Index: i, Count: 3}
		for _, j := range sh.Jobs(jobs) {
			seen[j.Index]++
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("shards cover %d of %d jobs", len(seen), len(jobs))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("job %d owned by %d shards", idx, n)
		}
	}
}

// TestRegistryCatalog: the built-in catalog builds and validates with
// the policy packages this test links in.
func TestRegistryCatalog(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("catalog has %d studies: %v", len(names), names)
	}
	for _, n := range names {
		st, err := Build(n)
		if err != nil {
			t.Errorf("catalog study %s: %v", n, err)
			continue
		}
		if len(st.Jobs()) == 0 {
			t.Errorf("catalog study %s expands to no jobs", n)
		}
	}
	if _, err := Build("no-such-study"); err == nil {
		t.Error("unknown study name accepted")
	}
}

// TestCellsKeepSeparatorNames runs a study whose trace and variant
// names contain "|" — traces "a|b" and "a" under variants "c" and
// "b|c", the shape of fig14's variant names — and checks that its four
// cells render as four: one CCT row per (cell, scheduler) with that
// cell's run and coflow counts, and one speedup row per cell, each
// matched against the baseline run of its own cell.
func TestCellsKeepSeparatorNames(t *testing.T) {
	source := func(name string, gen func() *trace.Trace) sweep.TraceSource {
		return sweep.TraceSource{Name: name, Gen: func(int64) *trace.Trace { return gen() }}
	}
	st, err := New("separators",
		WithTraces(source("a|b", trace.Fig1Trace), source("a", trace.Fig4Trace)),
		WithSchedulers("aalo", "saath"),
		WithParamGrid(sweep.Variant{Name: "c"}, sweep.Variant{Name: "b|c"}),
		WithBaseline("aalo"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(context.Background(), Pool{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()

	type cell struct{ workload, coflows string }
	cells := []cell{{"a|b c", "4"}, {"a|b b|c", "4"}, {"a c", "3"}, {"a b|c", "3"}}
	var want [][]string
	for _, c := range cells {
		for _, sn := range []string{"aalo", "saath"} {
			want = append(want, []string{c.workload, sn, "1", c.coflows})
		}
	}
	var got [][]string
	for _, row := range sum.CCTTable("cct").Rows {
		got = append(got, row[:4])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CCT rows (workload, scheduler, runs, coflows) =\n%q\nwant\n%q", got, want)
	}

	// Each saath run over the aalo run of its own cell, summarized as
	// the speedup table renders it.
	entries := sum.Entries()
	want = nil
	for i := 0; i < len(entries); i += 2 {
		base, run := entries[i], entries[i+1]
		if base.Metrics.Scheduler != "aalo" || run.Metrics.Scheduler != "saath" {
			t.Fatalf("entries %d, %d are %s, %s; want aalo, saath", i, i+1, base.Metrics.Scheduler, run.Metrics.Scheduler)
		}
		s := stats.Summarize(stats.Speedups(base.CCTByID, run.CCTByID))
		want = append(want, []string{cells[i/2].workload, "saath",
			fmt.Sprintf("%.2f", s.P10), fmt.Sprintf("%.2f", s.Median),
			fmt.Sprintf("%.2f", s.P90), fmt.Sprintf("%.2f", s.Mean), cells[i/2].coflows})
	}
	if got := sum.SpeedupTable("speedup", "aalo").Rows; !reflect.DeepEqual(got, want) {
		t.Errorf("speedup rows =\n%q\nwant\n%q", got, want)
	}
}
