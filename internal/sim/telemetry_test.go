package sim

import (
	"encoding/json"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
	"saath/internal/telemetry"
	"saath/internal/trace"

	_ "saath/internal/sched/aalo"
)

// telemetryTrace is a small contended workload: 12 coflows fanning
// into 2 aggregator ports on an 8-port cluster.
func telemetryTrace(seed int64) *trace.Trace {
	tr, err := trace.SynthesizeIncast(trace.FanConfig{
		Seed: seed, NumPorts: 8, NumCoFlows: 12,
		MeanInterArrival: 10 * coflow.Millisecond,
		Degree:           4, Skew: 0.5, Hotspots: 2,
		MinSize: 100 * coflow.KB, MaxSize: 4 * coflow.MB,
	}, "telemetry-tiny")
	if err != nil {
		panic(err)
	}
	return tr
}

// pointsSpec asks for points and progress series as well, so the
// tests below cover every per-interval series the probes record.
func pointsSpec(seed int64) telemetry.Spec {
	return telemetry.Spec{Enabled: true, Seed: seed, RingCap: 256, ReservoirCap: 256, ProgressCoFlows: 4}
}

func runWithSuite(t testing.TB, seed int64) (*Result, *telemetry.Metrics) {
	s, err := sched.New("aalo", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	suite := telemetry.NewSuite(pointsSpec(7))
	res, err := Run(telemetryTrace(seed), s, Config{Probes: []telemetry.Probe{suite}})
	if err != nil {
		t.Fatal(err)
	}
	return res, suite.Metrics()
}

// TestEngineProbeObservations checks the engine feeds probes coherent
// per-interval state: one observation per scheduling round, admitted /
// completed counters reaching the trace size, and the utilization
// series averaging to exactly Result.AvgEgressUtilization — proof that
// the Result statistic and the telemetry stream share one emission
// path (the PR 1 sorted-accumulation determinism fix included).
func TestEngineProbeObservations(t *testing.T) {
	res, m := runWithSuite(t, 1)
	if m.Intervals != int64(res.Intervals) {
		t.Fatalf("probe saw %d intervals, engine ran %d", m.Intervals, res.Intervals)
	}
	adm := m.FindSeries(telemetry.SeriesAdmittedCoFlows)
	if adm == nil || adm.Last != 12 {
		t.Fatalf("admitted series = %+v, want last 12", adm)
	}
	util := m.FindSeries(telemetry.SeriesEgressUtil)
	if util == nil || util.Count != int64(res.Intervals) {
		t.Fatalf("util series = %+v", util)
	}
	// Same emission path ⇒ the series mean IS the Result aggregate
	// (both are sum/len over identical float64 terms, added in the
	// same order — bitwise equality, no tolerance).
	if util.Mean != res.AvgEgressUtilization {
		t.Fatalf("telemetry util mean %v != result %v", util.Mean, res.AvgEgressUtilization)
	}
	if h := m.FindHistogram(telemetry.HistIngressOccupancy); h == nil || h.Count == 0 {
		t.Fatalf("ingress occupancy histogram empty: %+v", h)
	}
}

// TestEngineProbeDeterminism: two identical runs export byte-identical
// telemetry. Map-order accumulation anywhere on the emission path
// would (overwhelmingly likely) flip low bits between runs.
func TestEngineProbeDeterminism(t *testing.T) {
	dump := func() []byte {
		_, m := runWithSuite(t, 3)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(dump()) != string(dump()) {
		t.Fatal("identical runs exported different telemetry")
	}
}

// TestUtilizationUnchangedByProbes: attaching probes must not perturb
// the simulation itself — results with and without telemetry are
// identical.
func TestUtilizationUnchangedByProbes(t *testing.T) {
	s, err := sched.New("aalo", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Run(telemetryTrace(1), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := sched.New("aalo", sched.DefaultParams())
	suite := telemetry.NewSuite(pointsSpec(1))
	probed, err := Run(telemetryTrace(1), s2, Config{Probes: []telemetry.Probe{suite}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.AvgEgressUtilization != probed.AvgEgressUtilization ||
		bare.Makespan != probed.Makespan || bare.AvgCCT() != probed.AvgCCT() {
		t.Fatalf("probes perturbed the simulation: %v/%v vs %v/%v",
			bare.AvgEgressUtilization, bare.Makespan, probed.AvgEgressUtilization, probed.Makespan)
	}
}

// observeFixture builds an engine mid-interval state directly (same
// package) so the emission path can be exercised in isolation.
func observeFixture(probes []telemetry.Probe) (*engine, *sched.RateVec) {
	cfg := Config{Probes: probes}.withDefaults()
	e := &engine{
		cfg:    cfg,
		fab:    fabric.New(4, cfg.PortRate),
		result: &Result{Intervals: 1},
	}
	c := coflow.New(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 2, Size: coflow.MB},
		{Src: 1, Dst: 3, Size: coflow.MB},
	}})
	e.space.Assign(c)
	e.active = []*coflow.CoFlow{c}
	e.snapScratch = append(e.snapScratch, c)
	alloc := sched.NewRateVec(e.space.FlowCap())
	alloc.Set(c.Flows[0].Idx, cfg.PortRate)
	alloc.Set(c.Flows[1].Idx, cfg.PortRate/2)
	return e, alloc
}

// TestObserveIntervalNoProbesZeroAlloc is the CI guard for the
// tentpole's zero-cost contract: with no probes attached, the
// per-interval emission path performs zero heap allocations.
func TestObserveIntervalNoProbesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e, alloc := observeFixture(nil)
	if n := testing.AllocsPerRun(200, func() { e.observeInterval(alloc) }); n != 0 {
		t.Fatalf("no-probe observeInterval allocates %.1f times per interval, want 0", n)
	}
}

// BenchmarkTelemetryEngine measures a full small simulation with the
// standard suite attached — the CI telemetry bench smoke.
func BenchmarkTelemetryEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := sched.New("aalo", sched.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		suite := telemetry.NewSuite(telemetry.Spec{Enabled: true, Seed: 7})
		if _, err := Run(telemetryTrace(1), s, Config{Probes: []telemetry.Probe{suite}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryOffBaseline is the same simulation without probes,
// for eyeballing the overhead of the previous benchmark.
func BenchmarkTelemetryOffBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := sched.New("aalo", sched.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(telemetryTrace(1), s, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
