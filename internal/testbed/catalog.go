package testbed

import (
	"fmt"

	"saath/internal/coflow"
	"saath/internal/report"
	rt "saath/internal/runtime"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"
)

// latencyPorts is the coordinator-latency study's cluster-size axis —
// the paper's Table 2 sweeps coordinator scheduling latency against
// cluster size; 10^4 agents run in-process in the default grid (10^5
// lives in the env-gated long test).
var latencyPorts = []int{1000, 4000, 10000}

// overloadLoads is the overload study's offered-rate axis, in
// multiples of the base arrival rate of overloadCfg.
var overloadLoads = []float64{0.5, 1, 2, 4}

// overloadAdmission is the overload study's admission bucket: 50
// coflows a second sustained, bursts of 15.
var overloadAdmission = rt.AdmissionConfig{RatePerSec: 50, Burst: 15}

// overloadOffered is the fixed coflow count every overload variant
// offers; only the rate at which they arrive changes, so drops are a
// pure function of rate against the admission bucket.
const overloadOffered = 120

// latencyCfg sizes the FB-marginal workload for a latency run at the
// given cluster size: enough coflows to keep the scheduler busy across
// the boundaries, sizes trimmed so each job drains in a few virtual
// seconds.
func latencyCfg(seed int64, ports int) trace.SynthConfig {
	cfg := trace.DefaultFBConfig(seed)
	cfg.NumPorts = ports
	cfg.NumCoFlows = 40
	cfg.MeanInterArrival = 15 * coflow.Millisecond
	cfg.MinSmall, cfg.MaxSmall = 2*coflow.MB, 8*coflow.MB
	cfg.MinLarge, cfg.MaxLarge = 8*coflow.MB, 48*coflow.MB
	return cfg
}

// overloadCfg is the overload study's base workload: a small fabric
// under a fixed coflow population whose arrival rate the variants
// scale past the admission bucket's sustained rate.
func overloadCfg(seed int64) trace.SynthConfig {
	cfg := trace.DefaultFBConfig(seed)
	cfg.NumPorts = 24
	cfg.NumCoFlows = overloadOffered
	cfg.MeanInterArrival = 25 * coflow.Millisecond
	cfg.MinSmall, cfg.MaxSmall = 2*coflow.MB, 8*coflow.MB
	cfg.MinLarge, cfg.MaxLarge = 8*coflow.MB, 32*coflow.MB
	return cfg
}

func init() {
	study.Register("coordinator-latency",
		"Table 2-style testbed run: coordinator scheduling latency vs cluster size, measured through the real coordinator with in-process agents",
		buildCoordinatorLatency)

	study.Register("overload",
		"ROADMAP 25(c)'s admission front, the one behaviour the engine lacks: offered coflow rate vs arrival-time drops at the coordinator's token bucket",
		buildOverload)

	study.Register("fig15",
		"Figs 15-16: saath vs aalo through the real coordinator on a small FB-mix trace, CCT speedup CDF and modelled JCT speedup",
		Fig15)
}

func buildCoordinatorLatency() (*study.Study, error) {
	var variants []sweep.Variant
	for _, p := range latencyPorts {
		p := p
		variants = append(variants, sweep.Variant{
			Name: fmt.Sprintf("ports=%d", p),
			MutateSeeded: func(tr *trace.Trace, seed int64) {
				*tr = *trace.Synthesize(latencyCfg(seed, p), tr.Name)
			},
		})
	}
	return study.New("coordinator-latency",
		study.WithExec(Exec(Config{})),
		study.WithTraces(sweep.SynthSource("fb-lat", func(seed int64) *trace.Trace {
			// Placeholder draw; every variant regenerates it at its
			// own cluster size (MutateSeeded).
			return trace.Synthesize(latencyCfg(seed, latencyPorts[0]), "fb-lat")
		})),
		study.WithSchedulers("saath"),
		study.WithSimConfig(sim.Config{Delta: 8 * coflow.Millisecond}),
		study.WithParamGrid(variants...),
		study.WithDerived(
			study.DerivedCCT("coordinator-latency — CCT through the real coordinator"),
		),
	)
}

func buildOverload() (*study.Study, error) {
	var variants []sweep.Variant
	for _, a := range overloadLoads {
		a := a
		variants = append(variants, sweep.Variant{
			Name: fmt.Sprintf("A=%g", a),
			MutateSeeded: func(tr *trace.Trace, seed int64) {
				gen := trace.Synthesize(overloadCfg(seed), tr.Name)
				gen.ScaleArrivals(1 / a)
				*tr = *gen
			},
		})
	}
	return study.New("overload",
		study.WithExec(Exec(Config{Admission: overloadAdmission})),
		study.WithTraces(sweep.SynthSource("fb-overload", func(seed int64) *trace.Trace {
			return trace.Synthesize(overloadCfg(seed), "fb-overload")
		})),
		study.WithSchedulers("saath"),
		study.WithSeeds(1, 2),
		study.WithSimConfig(sim.Config{Delta: 8 * coflow.Millisecond}),
		study.WithParamGrid(variants...),
		study.WithDerived(
			DerivedAdmission("overload — offered rate vs admission drops", overloadOffered),
			study.DerivedCCT("overload — CCT of admitted coflows"),
		),
	)
}

// DerivedAdmission renders the offered-vs-dropped table of an
// admission study: every grid cell's completed count against the fixed
// offered population. Purely derived from the deterministic summary,
// so it is identical for live, parallel and merged shard executions —
// the drop counts themselves are deterministic because admission
// decisions run on the virtual clock.
func DerivedAdmission(title string, offered int) study.Derived {
	return func(st *study.Study, sum *sweep.Summary) ([]*report.Table, error) {
		if offered <= 0 {
			return nil, fmt.Errorf("derived admission %q: offered %d <= 0", title, offered)
		}
		t := &report.Table{Title: title, Headers: []string{
			"trace", "variant", "scheduler", "seed", "offered", "admitted", "dropped", "drop %",
		}}
		for _, e := range sum.Entries() {
			m := e.Metrics
			if m.Error != "" {
				continue
			}
			dropped := offered - m.CoFlows
			t.AddRow(m.Trace, m.Variant, m.Scheduler, m.Seed, offered, m.CoFlows, dropped,
				fmt.Sprintf("%.1f%%", 100*float64(dropped)/float64(offered)))
		}
		return []*report.Table{t}, nil
	}
}

// fig15Trace is the small FB-mix workload of the testbed figures: six
// ports, twelve coflows, flow sizes in the hundreds of kilobytes.
func fig15Trace() *trace.Trace {
	return trace.Synthesize(trace.SynthConfig{
		Seed:             3,
		NumPorts:         6,
		NumCoFlows:       12,
		MeanInterArrival: 60 * coflow.Millisecond,
		SingleFlowFrac:   0.25,
		EqualLengthFrac:  0.5,
		WideFracNarrowCF: 0.3,
		SmallFracNarrow:  0.8,
		SmallFracWide:    0.5,
		MinSmall:         100 * coflow.KB,
		MaxSmall:         600 * coflow.KB,
		MinLarge:         600 * coflow.KB,
		MaxLarge:         3 * coflow.MB,
	}, "testbed-3")
}

// fig16Buckets are Fig. 16's shuffle-fraction buckets, each with the
// fraction its jobs are modelled at.
var fig16Buckets = []struct {
	label string
	frac  float64
}{
	{"<25%", 0.15},
	{"25-50%", 0.375},
	{"50-75%", 0.625},
	{">=75%", 0.85},
}

// Fig15 reproduces the testbed evaluation (§7) through the real
// coordinator on the virtual clock: Fig. 15, the CDF of per-CoFlow
// speedup of Saath over Aalo, and Fig. 16, those CCTs mapped to job
// completion times with the shuffle-fraction model. The line rate is
// scaled down (25 MB/s per port) and δ is 10 ms.
func Fig15() (*study.Study, error) {
	return study.New("fig15",
		study.WithExec(Exec(Config{})),
		study.WithTraces(sweep.FixedTrace(fig15Trace())),
		study.WithSchedulers("aalo", "saath"),
		study.WithSimConfig(sim.Config{Delta: 10 * coflow.Millisecond, PortRate: coflow.Rate(25e6)}),
		study.WithDerived(derivedFig15),
	)
}

// derivedFig15 renders Fig. 15 (the speedup CDF and its summary) and
// Fig. 16 from the study's aalo and saath runs.
func derivedFig15(st *study.Study, sum *sweep.Summary) ([]*report.Table, error) {
	var aalo, saath *sweep.Entry
	entries := sum.Entries()
	for i := range entries {
		e := &entries[i]
		if e.Metrics.Error != "" {
			return nil, fmt.Errorf("figure fig15: %s: %s", e.Metrics.Scheduler, e.Metrics.Error)
		}
		switch e.Metrics.Scheduler {
		case "aalo":
			aalo = e
		case "saath":
			saath = e
		}
	}
	sp := stats.Speedups(aalo.CCTByID, saath.CCTByID)
	cdf := report.SampledCDFTable("Fig 15 — [testbed] CDF of CCT speedup of Saath over Aalo", "speedup", stats.CDF(sp), 25)
	s := stats.Summarize(sp)
	summary := &report.Table{Title: "Fig 15 — summary", Headers: []string{"median", "mean", "p90", "n"}}
	summary.AddRow(fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.Mean), fmt.Sprintf("%.2f", s.P90), s.N)

	jct := &report.Table{
		Title:   "Fig 16 — [testbed] JCT speedup by shuffle fraction",
		Headers: []string{"shuffle fraction", "p50", "p90", "n"},
	}
	// Coflow ID modulo the bucket count assigns each job its shuffle
	// fraction: the same assignment for both schedulers.
	var all []float64
	for bi, b := range fig16Buckets {
		model := stats.JCTModel{ShuffleFraction: b.frac}
		var bsp []float64
		for _, r := range aalo.CoFlows {
			base, target := aalo.CCTByID[r.ID], saath.CCTByID[r.ID]
			if int(r.ID)%len(fig16Buckets) != bi || base <= 0 || target <= 0 {
				continue
			}
			bsp = append(bsp, model.JCTSpeedup(base, target))
		}
		all = append(all, bsp...)
		if len(bsp) == 0 {
			jct.AddRow(b.label, "-", "-", 0)
			continue
		}
		jct.AddRow(b.label, fmt.Sprintf("%.2f", stats.Percentile(bsp, 50)), fmt.Sprintf("%.2f", stats.Percentile(bsp, 90)), len(bsp))
	}
	if len(all) > 0 {
		jct.AddRow("all", fmt.Sprintf("%.2f", stats.Percentile(all, 50)), fmt.Sprintf("%.2f", stats.Percentile(all, 90)), len(all))
	}
	return []*report.Table{cdf, summary, jct}, nil
}
