package study

import (
	"fmt"

	"saath/internal/coflow"
	"saath/internal/report"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/sweep"
	"saath/internal/trace"
)

// The paper's evaluation (§2.3 Figs 1–3, §6 Figs 9–14, Appendix A Fig
// 17, and the design ablations) as catalog studies: each figure family
// is one grid plus the derived tables that render the figure from the
// study's summary, so a figure runs, shards and merges like any other
// study. The constructors take their workloads; the catalog registers
// them at the published trace dimensions (trace.SynthFB/SynthOSP, seed
// 1). The testbed's Figs 15/16 are internal/testbed's fig15 study.

// cdfPoints is the downsampling used when rendering CDF figures.
const cdfPoints = 25

// figureConfig is the simulator configuration every figure runs under.
var figureConfig = sim.Config{Delta: 8 * coflow.Millisecond}

func init() {
	fb := sweep.SynthSource("fb-synth", trace.SynthFB)
	osp := sweep.SynthSource("osp-synth", trace.SynthOSP)
	Register("fig1", "Fig 1: the out-of-sync toy example, per-coflow CCT under aalo and saath", Fig1)
	Register("fig2", "Fig 2: FB trace shape (width, flow-length spread) and out-of-sync FCTs under aalo",
		func() (*Study, error) { return Fig2(fb) })
	Register("fig3", "Fig 3: clairvoyant SCF/SRTF/LWTF speedup over aalo on FB",
		func() (*Study, error) { return Fig3(fb) })
	Register("fig9", "Fig 9: saath's speedup over varys, aalo and uc-tcp on FB and OSP",
		func() (*Study, error) { return Fig9(fb, osp) })
	Register("fig10", "Figs 10-12: speedup over aalo by design component, overall and per Table-1 bin",
		func() (*Study, error) { return Fig10(fb, osp) })
	Register("fig13", "Fig 13: out-of-sync reduction, FCT spread under saath vs aalo on FB",
		func() (*Study, error) { return Fig13(fb) })
	Register("fig14", "Fig 14: sensitivity to S, E, δ, arrival scaling and the deadline factor on FB",
		func() (*Study, error) { return Fig14(fb) })
	Register("fig17", "Fig 17: duration-ordered SJF against contention-aware LWTF on the Appendix A example", Fig17)
	Register("ablations", "§4 design ablations on FB: work conservation, LCoF's k_c against CoFlow width, §4.3's straggler SRTF",
		func() (*Study, error) { return Ablations(fb) })
}

// Fig1 reproduces the out-of-sync motivating example: four CoFlows on
// three sender ports, per-CoFlow CCT under Aalo (FIFO) and Saath.
func Fig1() (*Study, error) {
	return New("fig1",
		WithTraces(sweep.FixedTrace(trace.Fig1Trace())),
		WithSchedulers("aalo", "saath"),
		WithSimConfig(figureConfig),
		WithDerived(derivedToyCCT("Fig 1 — out-of-sync example (CCT in units of t=100ms)", 4)))
}

// Fig17 reproduces Appendix A: duration-ordered SJF versus the
// contention-aware LWTF on the two-port example.
func Fig17() (*Study, error) {
	return New("fig17",
		WithTraces(sweep.FixedTrace(trace.Fig17Trace())),
		WithSchedulers("sjf-duration", "lwtf"),
		WithSimConfig(figureConfig),
		WithDerived(derivedToyCCT("Fig 17 — SJF sub-optimality (CCT in units of t=100ms)", 3)))
}

// derivedToyCCT renders a toy example's CCTs of coflows 1..n in units
// of trace.MicroUnit, one column per scheduler, then their averages.
func derivedToyCCT(title string, n int) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		c, err := cellsOf(st, sum)
		if err != nil {
			return nil, err
		}
		runs := make([]*sweep.Entry, len(st.schedulers))
		for i, sn := range st.schedulers {
			runs[i] = c.get(st.traces[0].Name, "", sn)
		}
		t := &report.Table{Title: title, Headers: append([]string{"coflow"}, st.schedulers...)}
		unit := trace.MicroUnit.Seconds()
		for id := coflow.CoFlowID(1); id <= coflow.CoFlowID(n); id++ {
			row := []any{fmt.Sprintf("C%d", id)}
			for _, r := range runs {
				row = append(row, fmt.Sprintf("%.2f", r.CCTByID[id].Seconds()/unit))
			}
			t.AddRow(row...)
		}
		row := []any{"average"}
		for _, r := range runs {
			row = append(row, fmt.Sprintf("%.2f", r.Metrics.AvgCCT/unit))
		}
		t.AddRow(row...)
		return []*report.Table{t}, nil
	}
}

// Fig2 reproduces the trace-shape and out-of-sync measurements on fb:
// (a) CDF of CoFlow width, (b) CDF of normalized flow-length stddev,
// (c) CDF of normalized FCT stddev under Aalo, equal vs unequal.
func Fig2(fb sweep.TraceSource) (*Study, error) {
	return New("fig2",
		WithTraces(fb),
		WithSchedulers("aalo"),
		WithSimConfig(figureConfig),
		WithDerived(func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
			c, err := cellsOf(st, sum)
			if err != nil {
				return nil, err
			}
			aalo := c.get(fb.Name, "", "aalo")
			var widths, devs []float64
			var single, equal, unequal int
			for _, r := range aalo.CoFlows {
				widths = append(widths, float64(r.Width))
				if r.Width > 1 {
					devs = append(devs, r.SizeDev)
				}
				switch trace.ClassOf(r.Width, r.SizeDev) {
				case trace.SingleFlow:
					single++
				case trace.EqualLength:
					equal++
				case trace.UnequalLength:
					unequal++
				}
			}
			fctEqual, fctUnequal := fctDeviations(aalo)
			n := float64(len(aalo.CoFlows))
			mix := &report.Table{Title: "Fig 2 — workload mix", Headers: []string{"class", "fraction"}}
			mix.AddRow("single-flow", fmt.Sprintf("%.2f", float64(single)/n))
			mix.AddRow("multi equal-length", fmt.Sprintf("%.2f", float64(equal)/n))
			mix.AddRow("multi unequal-length", fmt.Sprintf("%.2f", float64(unequal)/n))
			return []*report.Table{
				report.SampledCDFTable("Fig 2a — CDF of CoFlow width (FB)", "width", stats.CDF(widths), cdfPoints),
				report.SampledCDFTable("Fig 2b — CDF of normalized flow-length stddev (multi-flow)", "norm stddev", stats.CDF(devs), cdfPoints),
				report.SampledCDFTable("Fig 2c — CDF of normalized FCT stddev under Aalo (equal flows)", "norm stddev", stats.CDF(fctEqual), cdfPoints),
				report.SampledCDFTable("Fig 2c — CDF of normalized FCT stddev under Aalo (unequal flows)", "norm stddev", stats.CDF(fctUnequal), cdfPoints),
				mix,
			}, nil
		}))
}

// fctDeviations returns, per multi-flow CoFlow of a run, the
// normalized stddev of its flows' completion times — the out-of-sync
// metric (§2.3) — split by equal/unequal flow lengths.
func fctDeviations(run *sweep.Entry) (equal, unequal []float64) {
	for _, r := range run.CoFlows {
		switch trace.ClassOf(r.Width, r.SizeDev) {
		case trace.EqualLength:
			equal = append(equal, r.FCTDev)
		case trace.UnequalLength:
			unequal = append(unequal, r.FCTDev)
		}
	}
	return equal, unequal
}

// Fig3 compares the clairvoyant SCF, SRTF and LWTF policies against
// Aalo on fb: (a) the per-CoFlow speedup CDF, (b) the overall
// average-CCT improvement in percent.
func Fig3(fb sweep.TraceSource) (*Study, error) {
	policies := []string{"scf", "srtf", "lwtf"}
	return New("fig3",
		WithTraces(fb),
		WithSchedulers(append([]string{"aalo"}, policies...)...),
		WithSimConfig(figureConfig),
		WithDerived(func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
			c, err := cellsOf(st, sum)
			if err != nil {
				return nil, err
			}
			aalo := c.get(fb.Name, "", "aalo")
			var tables []*report.Table
			overall := &report.Table{Title: "Fig 3b — overall CCT speedup over Aalo (%)", Headers: []string{"policy", "improvement %"}}
			for _, policy := range policies {
				run := c.get(fb.Name, "", policy)
				sp := stats.Speedups(aalo.CCTByID, run.CCTByID)
				tables = append(tables, report.SampledCDFTable(
					fmt.Sprintf("Fig 3a — CDF of CCT speedup of %s over Aalo", policy), "speedup", stats.CDF(sp), cdfPoints))
				overall.AddRow(policy, fmt.Sprintf("%.1f", stats.OverallSpeedupPercent(aalo.Metrics.AvgCCT, run.Metrics.AvgCCT)))
			}
			return append(tables, overall), nil
		}))
}

// fig9Baselines are the Fig. 9 comparison baselines in presentation
// order — a slice, so the series order never depends on map iteration.
var fig9Baselines = []struct{ name, label string }{
	{"varys", "varys (SEBF, offline)"},
	{"aalo", "aalo (online)"},
	{"uc-tcp", "uc-tcp (online)"},
}

// Fig9 is the headline comparison: per-CoFlow CCT speedup using Saath
// over SEBF (Varys, offline), Aalo and UC-TCP, for both workloads,
// shown as median with P10/P90.
func Fig9(fb, osp sweep.TraceSource) (*Study, error) {
	var scheds []string
	for _, b := range fig9Baselines {
		scheds = append(scheds, b.name)
	}
	return New("fig9",
		WithTraces(fb, osp),
		WithSchedulers(append(scheds, "saath")...),
		WithSimConfig(figureConfig),
		WithDerived(func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
			c, err := cellsOf(st, sum)
			if err != nil {
				return nil, err
			}
			var tables []*report.Table
			for _, tr := range []string{fb.Name, osp.Name} {
				saath := c.get(tr, "", "saath")
				series := make(map[string]stats.SpeedupSummary, len(fig9Baselines))
				order := make([]string, 0, len(fig9Baselines))
				for _, b := range fig9Baselines {
					series[b.label] = stats.Summarize(stats.Speedups(c.get(tr, "", b.name).CCTByID, saath.CCTByID))
					order = append(order, b.label)
				}
				tables = append(tables, report.SpeedupBar(
					fmt.Sprintf("Fig 9 — CCT speedup using Saath (%s)", tr), series, order))
			}
			return tables, nil
		}))
}

// ablations are the Fig. 10–12 design-breakdown variants, in the
// paper's presentation order.
var ablations = []struct{ name, label string }{
	{"saath/an+fifo", "A/N + FIFO"},
	{"saath/an+pf+fifo", "A/N + PF + FIFO"},
	{"saath", "A/N + PF + LCoF (Saath)"},
}

// Fig10 breaks the speedup over Aalo down by design component (Fig
// 10), then by Table-1 bin on fb (Fig 11) and on osp (Fig 12).
func Fig10(fb, osp sweep.TraceSource) (*Study, error) {
	scheds := []string{"aalo"}
	for _, ab := range ablations {
		scheds = append(scheds, ab.name)
	}
	return New("fig10",
		WithTraces(fb, osp),
		WithSchedulers(scheds...),
		WithSimConfig(figureConfig),
		WithDerived(func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
			c, err := cellsOf(st, sum)
			if err != nil {
				return nil, err
			}
			t := &report.Table{
				Title:   "Fig 10 — speedup over Aalo by design component (median, P90)",
				Headers: []string{"variant", "fb median", "fb p90", "osp median", "osp p90"},
			}
			for _, ab := range ablations {
				row := []any{ab.label}
				for _, tr := range []string{fb.Name, osp.Name} {
					s := stats.Summarize(stats.Speedups(c.get(tr, "", "aalo").CCTByID, c.get(tr, "", ab.name).CCTByID))
					row = append(row, fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.P90))
				}
				t.AddRow(row...)
			}
			return []*report.Table{t, binBreakdown(c, fb.Name, "Fig 11"), binBreakdown(c, osp.Name, "Fig 12")}, nil
		}))
}

// binBreakdown splits a workload's design breakdown by the Table-1
// bins; the header carries each bin's share of the coflows (the
// x-label percentages of Fig. 11).
func binBreakdown(c cells, tr, figure string) *report.Table {
	aalo := c.get(tr, "", "aalo")
	var count [stats.Bin4 + 1]int
	for _, r := range aalo.CoFlows {
		count[stats.AssignBin(r.Bytes, r.Width)]++
	}
	headers := []string{"variant"}
	for b := stats.Bin1; b <= stats.Bin4; b++ {
		pct := 0.0
		if n := len(aalo.CoFlows); n > 0 {
			pct = 100 * float64(count[b]) / float64(n)
		}
		headers = append(headers, fmt.Sprintf("bin-%d (%.0f%%)", int(b)+1, pct))
	}
	t := &report.Table{
		Title:   fmt.Sprintf("%s — median speedup over Aalo by Table-1 bin (%s)", figure, tr),
		Headers: headers,
	}
	for _, ab := range ablations {
		run := c.get(tr, "", ab.name)
		var byBin [stats.Bin4 + 1][]float64
		for _, r := range run.CoFlows {
			b, ok := aalo.CCTByID[r.ID]
			cct := run.CCTByID[r.ID]
			if !ok || b <= 0 || cct <= 0 {
				continue
			}
			bin := stats.AssignBin(r.Bytes, r.Width)
			byBin[bin] = append(byBin[bin], float64(b)/float64(cct))
		}
		row := []any{ab.label}
		for b := stats.Bin1; b <= stats.Bin4; b++ {
			if sp := byBin[b]; len(sp) > 0 {
				row = append(row, fmt.Sprintf("%.2f", stats.Median(sp)))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig13 compares the out-of-sync metric under Saath and Aalo: the CDF
// of normalized FCT stddev for multi-flow CoFlows, split by
// flow-length class, on fb.
func Fig13(fb sweep.TraceSource) (*Study, error) {
	return New("fig13",
		WithTraces(fb),
		WithSchedulers("aalo", "saath"),
		WithSimConfig(figureConfig),
		WithDerived(func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
			c, err := cellsOf(st, sum)
			if err != nil {
				return nil, err
			}
			var tables []*report.Table
			summary := &report.Table{
				Title:   "Fig 13 — out-of-sync reduction (FB): share of CoFlows with norm. FCT stddev ≤ x",
				Headers: []string{"scheduler", "class", "≤0 (in sync)", "≤0.10"},
			}
			for _, sn := range st.schedulers {
				equal, unequal := fctDeviations(c.get(fb.Name, "", sn))
				for _, cls := range []struct {
					name string
					devs []float64
				}{{"equal", equal}, {"unequal", unequal}} {
					cdf := stats.CDF(cls.devs)
					tables = append(tables, report.SampledCDFTable(
						fmt.Sprintf("Fig 13 — norm. FCT stddev CDF, %s, %s flows", sn, cls.name),
						"norm stddev", cdf, cdfPoints))
					summary.AddRow(sn, cls.name,
						fmt.Sprintf("%.2f", stats.CDFAt(cdf, 1e-9)),
						fmt.Sprintf("%.2f", stats.CDFAt(cdf, 0.10)))
				}
			}
			return append(tables, summary), nil
		}))
}

// fig14Point is one sensitivity point: a parameter variant plus the
// schedulers evaluated at it.
type fig14Point struct {
	table  string // which sub-sweep table the point belongs to ("a".."e")
	label  string // row label (the swept value)
	scheds []string
	params sched.Params
	cfg    sim.Config
	mutate func(*trace.Trace)
}

func (pt fig14Point) variant() string { return pt.table + "|" + pt.label }

// fig14Points declares the full §6.3 sensitivity grid.
func fig14Points() []fig14Point {
	both := []string{"saath", "aalo"}
	def := sched.DefaultParams()
	var points []fig14Point

	// (a) start queue threshold S.
	for _, s := range []coflow.Bytes{10 * coflow.MB, 100 * coflow.MB, coflow.GB, 10 * coflow.GB, 100 * coflow.GB, coflow.TB} {
		p := def
		p.Queues.StartThreshold = s
		points = append(points, fig14Point{
			table: "a", label: fmt.Sprintf("%dMB", s/coflow.MB), scheds: both, params: p, cfg: figureConfig})
	}
	// (b) exponential growth factor E.
	for _, g := range []float64{2, 5, 10, 16, 32} {
		p := def
		p.Queues.Growth = g
		points = append(points, fig14Point{
			table: "b", label: fmt.Sprintf("%g", g), scheds: both, params: p, cfg: figureConfig})
	}
	// (c) synchronization interval δ.
	for _, d := range []coflow.Time{2, 4, 8, 12, 16, 20} {
		cfg := figureConfig
		cfg.Delta = d * coflow.Millisecond
		points = append(points, fig14Point{
			table: "c", label: fmt.Sprintf("%d", d), scheds: both, params: def, cfg: cfg})
	}
	// (d) arrival-time scaling A (A>1 = arrivals A× faster).
	for _, a := range []float64{0.25, 0.5, 1, 2, 4, 5} {
		a := a
		points = append(points, fig14Point{
			table: "d", label: fmt.Sprintf("%g", a), scheds: both, params: def, cfg: figureConfig,
			mutate: func(tr *trace.Trace) { tr.ScaleArrivals(1 / a) }})
	}
	// (e) starvation deadline factor d (Saath only).
	for _, d := range []float64{1, 2, 4, 8, 16} {
		p := def
		p.DeadlineFactor = d
		points = append(points, fig14Point{
			table: "e", label: fmt.Sprintf("%gx", d), scheds: []string{"saath"}, params: p, cfg: figureConfig})
	}
	return points
}

// Fig14 runs the five sensitivity sweeps of §6.3 on fb. Each point
// reports the median per-CoFlow speedup of the varied scheduler over
// Aalo at default parameters (the grid's "default" variant), matching
// the paper's y-axis; Fig 14e restricts itself to Saath.
func Fig14(fb sweep.TraceSource) (*Study, error) {
	points := fig14Points()
	variants := []sweep.Variant{{Name: "default", Schedulers: []string{"aalo"}}}
	for _, pt := range points {
		variants = append(variants, sweep.Variant{
			Name:       pt.variant(),
			Params:     pt.params,
			Config:     pt.cfg,
			Mutate:     pt.mutate,
			Schedulers: pt.scheds,
		})
	}
	return New("fig14",
		WithTraces(fb),
		WithSimConfig(figureConfig),
		WithParamGrid(variants...),
		WithDerived(func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
			c, err := cellsOf(st, sum)
			if err != nil {
				return nil, err
			}
			base := c.get(fb.Name, "default", "aalo").CCTByID
			tables := map[string]*report.Table{
				"a": {Title: "Fig 14a — sensitivity to start threshold S", Headers: []string{"S", "saath", "aalo"}},
				"b": {Title: "Fig 14b — sensitivity to growth factor E", Headers: []string{"E", "saath", "aalo"}},
				"c": {Title: "Fig 14c — sensitivity to sync interval δ", Headers: []string{"δ (ms)", "saath", "aalo"}},
				"d": {Title: "Fig 14d — sensitivity to arrival scaling A", Headers: []string{"A", "saath", "aalo"}},
				"e": {Title: "Fig 14e — sensitivity to deadline factor d", Headers: []string{"d", "saath"}},
			}
			for _, pt := range points {
				row := []any{pt.label}
				for _, sn := range pt.scheds {
					row = append(row, fmt.Sprintf("%.2f", stats.Median(stats.Speedups(base, c.get(fb.Name, pt.variant(), sn).CCTByID))))
				}
				tables[pt.table].AddRow(row...)
			}
			return []*report.Table{tables["a"], tables["b"], tables["c"], tables["d"], tables["e"]}, nil
		}))
}

// Ablations quantifies three design choices on fb, each against Aalo
// or itself: work conservation (Saath with and without it), the LCoF
// contention metric (the paper's blocked-CoFlow count k_c against
// CoFlow width), and the §4.3 straggler path (stragglers injected,
// with and without the SRTF re-queueing).
func Ablations(fb sweep.TraceSource) (*Study, error) {
	dyn := sim.Config{Dynamics: &sim.Dynamics{Seed: 7, StragglerProb: 0.05, Slowdown: 4}}
	srtfOff := sched.DefaultParams()
	srtfOff.DynamicsSRTF = false
	return New("ablations",
		WithTraces(fb),
		WithSchedulers("aalo", "saath", "saath/nowc", "saath/width-contention"),
		WithSimConfig(figureConfig),
		WithParamGrid(
			sweep.Variant{Name: "default"},
			sweep.Variant{Name: "srtf=on", Config: dyn, Schedulers: []string{"saath"}},
			sweep.Variant{Name: "srtf=off", Params: srtfOff, Config: dyn, Schedulers: []string{"saath"}},
		),
		WithDerived(func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
			c, err := cellsOf(st, sum)
			if err != nil {
				return nil, err
			}
			speedup := func(sn string) stats.SpeedupSummary {
				return stats.Summarize(stats.Speedups(c.get(fb.Name, "default", "aalo").CCTByID, c.get(fb.Name, "default", sn).CCTByID))
			}
			wc := &report.Table{
				Title:   "Ablation — work conservation",
				Headers: []string{"variant", "fb median speedup over aalo"},
			}
			for _, sn := range []string{"saath", "saath/nowc"} {
				wc.AddRow(sn, fmt.Sprintf("%.2f", speedup(sn).Median))
			}
			metric := &report.Table{
				Title:   "Ablation — LCoF contention metric",
				Headers: []string{"metric", "fb median speedup over aalo", "fb p90"},
			}
			for _, v := range []struct{ name, label string }{
				{"saath", "blocked-coflow count k_c (paper)"},
				{"saath/width-contention", "width proxy"},
			} {
				s := speedup(v.name)
				metric.AddRow(v.label, fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.P90))
			}
			on, off := c.get(fb.Name, "srtf=on", "saath"), c.get(fb.Name, "srtf=off", "saath")
			s := stats.Summarize(stats.Speedups(off.CCTByID, on.CCTByID))
			dynamics := &report.Table{
				Title:   "Ablation — cluster-dynamics SRTF approximation (stragglers injected)",
				Headers: []string{"variant", "avg CCT (s)", "p10", "median", "p90 (tail gain)"},
			}
			dynamics.AddRow("dynamics SRTF on", fmt.Sprintf("%.3f", on.Metrics.AvgCCT),
				fmt.Sprintf("%.2f", s.P10), fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.P90))
			dynamics.AddRow("dynamics SRTF off", fmt.Sprintf("%.3f", off.Metrics.AvgCCT), "1.00", "1.00", "1.00")
			return []*report.Table{wc, metric, dynamics}, nil
		}))
}

// cells indexes a study's runs by cell: figure tables read
// single-seed cells.
type cells map[cellKey]*sweep.Entry

// cellKey names a run by trace, variant and scheduler.
type cellKey struct{ trace, variant, scheduler string }

// cellsOf indexes sum, failing on the first failed job — a figure
// indexes every cell of its grid, so a partial result errors here
// rather than rendering a table with holes.
func cellsOf(st *Study, sum *sweep.Summary) (cells, error) {
	entries := sum.Entries()
	c := make(cells, len(entries))
	for i := range entries {
		m := &entries[i].Metrics
		if m.Error != "" {
			return nil, fmt.Errorf("figure %s: job %s|%s|%d|%s: %s", st.name, m.Trace, m.Variant, m.Seed, m.Scheduler, m.Error)
		}
		c[cellKey{m.Trace, m.Variant, m.Scheduler}] = &entries[i]
	}
	return c, nil
}

// get returns the run of scheduler sn on trace tr under variant v.
func (c cells) get(tr, v, sn string) *sweep.Entry { return c[cellKey{tr, v, sn}] }
