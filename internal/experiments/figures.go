package experiments

import (
	"fmt"
	"time"

	"saath/internal/coflow"
	"saath/internal/obs" //saath:obs-ok Table 2 is the paper's wall-clock table: it reads the engine's one latency recorder and feeds no deterministic output
	"saath/internal/report"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"
)

// cdfPoints is the downsampling used when rendering CDF figures.
const cdfPoints = 25

// Fig1 reproduces the out-of-sync motivating example: four CoFlows on
// three sender ports, per-CoFlow CCT under Aalo (FIFO) and Saath.
func (e *Env) Fig1() ([]*report.Table, error) {
	tr := trace.Fig1Trace()
	t := &report.Table{
		Title:   "Fig 1 — out-of-sync example (CCT in units of t=100ms)",
		Headers: []string{"coflow", "aalo", "saath"},
	}
	if err := e.Prime([]*trace.Trace{tr}, "aalo", "saath"); err != nil {
		return nil, err
	}
	aalo, err := e.Run(tr, "aalo")
	if err != nil {
		return nil, err
	}
	saath, err := e.Run(tr, "saath")
	if err != nil {
		return nil, err
	}
	unit := trace.MicroUnit.Seconds()
	am, sm := aalo.CCTByID(), saath.CCTByID()
	for id := coflow.CoFlowID(1); id <= 4; id++ {
		t.AddRow(fmt.Sprintf("C%d", id),
			fmt.Sprintf("%.2f", am[id].Seconds()/unit),
			fmt.Sprintf("%.2f", sm[id].Seconds()/unit))
	}
	t.AddRow("average",
		fmt.Sprintf("%.2f", aalo.AvgCCT()/unit),
		fmt.Sprintf("%.2f", saath.AvgCCT()/unit))
	return []*report.Table{t}, nil
}

// Fig2 reproduces the trace-shape and out-of-sync measurements:
// (a) CDF of CoFlow width, (b) CDF of normalized flow-length stddev,
// (c) CDF of normalized FCT stddev under Aalo, equal vs unequal.
func (e *Env) Fig2() ([]*report.Table, error) {
	summary := trace.Summarize(e.FB)
	widths := make([]float64, len(summary.Widths))
	for i, w := range summary.Widths {
		widths[i] = float64(w)
	}
	ta := report.SampledCDFTable("Fig 2a — CDF of CoFlow width (FB)", "width", stats.CDF(widths), cdfPoints)

	var devs []float64
	for i, d := range summary.SizeDevs {
		if summary.Widths[i] > 1 {
			devs = append(devs, d)
		}
	}
	tb := report.SampledCDFTable("Fig 2b — CDF of normalized flow-length stddev (multi-flow)", "norm stddev", stats.CDF(devs), cdfPoints)

	aalo, err := e.Run(e.FB, "aalo")
	if err != nil {
		return nil, err
	}
	equal, unequal := fctDeviations(e.FB, aalo)
	tc1 := report.SampledCDFTable("Fig 2c — CDF of normalized FCT stddev under Aalo (equal flows)", "norm stddev", stats.CDF(equal), cdfPoints)
	tc2 := report.SampledCDFTable("Fig 2c — CDF of normalized FCT stddev under Aalo (unequal flows)", "norm stddev", stats.CDF(unequal), cdfPoints)

	mix := &report.Table{Title: "Fig 2 — workload mix", Headers: []string{"class", "fraction"}}
	mix.AddRow("single-flow", fmt.Sprintf("%.2f", summary.SingleFrac))
	mix.AddRow("multi equal-length", fmt.Sprintf("%.2f", summary.EqualFrac))
	mix.AddRow("multi unequal-length", fmt.Sprintf("%.2f", summary.UnequalFrac))
	return []*report.Table{ta, tb, tc1, tc2, mix}, nil
}

// Fig3 compares the clairvoyant SCF, SRTF and LWTF policies against
// Aalo: (a) the per-CoFlow speedup CDF, (b) the overall average-CCT
// improvement in percent.
func (e *Env) Fig3() ([]*report.Table, error) {
	if err := e.Prime([]*trace.Trace{e.FB}, "aalo", "scf", "srtf", "lwtf"); err != nil {
		return nil, err
	}
	aalo, err := e.Run(e.FB, "aalo")
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	overall := &report.Table{Title: "Fig 3b — overall CCT speedup over Aalo (%)", Headers: []string{"policy", "improvement %"}}
	for _, policy := range []string{"scf", "srtf", "lwtf"} {
		res, err := e.Run(e.FB, policy)
		if err != nil {
			return nil, err
		}
		sp := stats.Speedups(aalo.CCTByID(), res.CCTByID())
		tables = append(tables, report.SampledCDFTable(
			fmt.Sprintf("Fig 3a — CDF of CCT speedup of %s over Aalo", policy), "speedup", stats.CDF(sp), cdfPoints))
		overall.AddRow(policy, fmt.Sprintf("%.1f", stats.OverallSpeedupPercent(aalo.AvgCCT(), res.AvgCCT())))
	}
	return append(tables, overall), nil
}

// fig9Baselines are the Fig. 9 comparison baselines in presentation
// order. Fig9 iterates this slice — not a map — so both the work
// order and, when several baselines fail, the error that surfaces
// are deterministic (detcheck flagged the original map-literal
// range; experiments_order_test.go pins the fix).
var fig9Baselines = []struct{ name, label string }{
	{"varys", "varys (SEBF, offline)"},
	{"aalo", "aalo (online)"},
	{"uc-tcp", "uc-tcp (online)"},
}

// Fig9 is the headline comparison: per-CoFlow CCT speedup using Saath
// over SEBF (Varys, offline), Aalo and UC-TCP, for both traces, shown
// as median with P10/P90.
func (e *Env) Fig9() ([]*report.Table, error) {
	if err := e.Prime([]*trace.Trace{e.FB, e.OSP}, "varys", "aalo", "uc-tcp", "saath"); err != nil {
		return nil, err
	}
	var tables []*report.Table
	for _, tr := range []*trace.Trace{e.FB, e.OSP} {
		series := make(map[string]stats.SpeedupSummary)
		order := make([]string, 0, len(fig9Baselines))
		for _, base := range fig9Baselines {
			sp, err := e.SpeedupOver(tr, base.name, "saath")
			if err != nil {
				return nil, err
			}
			series[base.label] = stats.Summarize(sp)
			order = append(order, base.label)
		}
		tables = append(tables, report.SpeedupBar(
			fmt.Sprintf("Fig 9 — CCT speedup using Saath (%s)", tr.Name), series, order))
	}
	return tables, nil
}

// ablations are the Fig. 10–12 design-breakdown variants, in the
// paper's presentation order.
var ablations = []struct{ name, label string }{
	{"saath/an+fifo", "A/N + FIFO"},
	{"saath/an+pf+fifo", "A/N + PF + FIFO"},
	{"saath", "A/N + PF + LCoF (Saath)"},
}

// primeAblations fans out Aalo plus every ablation variant on the
// given traces before the figure assembles its rows serially.
func (e *Env) primeAblations(traces ...*trace.Trace) error {
	names := []string{"aalo"}
	for _, ab := range ablations {
		names = append(names, ab.name)
	}
	return e.Prime(traces, names...)
}

// Fig10 breaks the speedup over Aalo down by design component.
func (e *Env) Fig10() ([]*report.Table, error) {
	if err := e.primeAblations(e.FB, e.OSP); err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Fig 10 — speedup over Aalo by design component (median, P90)",
		Headers: []string{"variant", "fb median", "fb p90", "osp median", "osp p90"},
	}
	for _, ab := range ablations {
		row := []any{ab.label}
		for _, tr := range []*trace.Trace{e.FB, e.OSP} {
			sp, err := e.SpeedupOver(tr, "aalo", ab.name)
			if err != nil {
				return nil, err
			}
			s := stats.Summarize(sp)
			row = append(row, fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.P90))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}, nil
}

// Fig11 splits the FB-trace breakdown by the Table-1 bins.
func (e *Env) Fig11() ([]*report.Table, error) { return e.binBreakdown(e.FB, "Fig 11") }

// Fig12 splits the OSP-trace breakdown by the Table-1 bins.
func (e *Env) Fig12() ([]*report.Table, error) { return e.binBreakdown(e.OSP, "Fig 12") }

func (e *Env) binBreakdown(tr *trace.Trace, figure string) ([]*report.Table, error) {
	if err := e.primeAblations(tr); err != nil {
		return nil, err
	}
	aalo, err := e.Run(tr, "aalo")
	if err != nil {
		return nil, err
	}
	// Bin population shares (the x-label percentages of Fig. 11).
	count := make(map[stats.Bin]int)
	for _, s := range tr.Specs {
		count[stats.AssignBin(s.TotalSize(), s.Width())]++
	}
	t := &report.Table{
		Title: fmt.Sprintf("%s — median speedup over Aalo by Table-1 bin (%s)", figure, tr.Name),
		Headers: []string{"variant",
			binLabel(stats.Bin1, count, len(tr.Specs)),
			binLabel(stats.Bin2, count, len(tr.Specs)),
			binLabel(stats.Bin3, count, len(tr.Specs)),
			binLabel(stats.Bin4, count, len(tr.Specs))},
	}
	for _, ab := range ablations {
		res, err := e.Run(tr, ab.name)
		if err != nil {
			return nil, err
		}
		byBin := binSpeedups(tr, aalo, res)
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
	return []*report.Table{t}, nil
}

func binLabel(b stats.Bin, count map[stats.Bin]int, total int) string {
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(count[b]) / float64(total)
	}
	return fmt.Sprintf("bin-%d (%.0f%%)", int(b)+1, pct)
}

// Fig13 compares the out-of-sync metric under Saath and Aalo: the CDF
// of normalized FCT stddev for multi-flow CoFlows, split by flow-length
// class, on the FB trace.
func (e *Env) Fig13() ([]*report.Table, error) {
	if err := e.Prime([]*trace.Trace{e.FB}, "aalo", "saath"); err != nil {
		return nil, err
	}
	var tables []*report.Table
	summary := &report.Table{
		Title:   "Fig 13 — out-of-sync reduction (FB): share of CoFlows with norm. FCT stddev ≤ x",
		Headers: []string{"scheduler", "class", "≤0 (in sync)", "≤0.10"},
	}
	for _, sn := range []string{"aalo", "saath"} {
		res, err := e.Run(e.FB, sn)
		if err != nil {
			return nil, err
		}
		equal, unequal := fctDeviations(e.FB, res)
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
}

// fig14Point is one sensitivity point: a parameter variant plus the
// schedulers evaluated at it. The five §6.3 sub-sweeps expand into one
// job list executed by a single worker pool, instead of the hand-rolled
// serial loops this function started as.
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
func (e *Env) fig14Points() []fig14Point {
	both := []string{"saath", "aalo"}
	var points []fig14Point

	// (a) start queue threshold S.
	for _, s := range []coflow.Bytes{10 * coflow.MB, 100 * coflow.MB, coflow.GB, 10 * coflow.GB, 100 * coflow.GB, coflow.TB} {
		p := e.Params
		p.Queues.StartThreshold = s
		points = append(points, fig14Point{
			table: "a", label: fmt.Sprintf("%dMB", s/coflow.MB), scheds: both, params: p, cfg: e.SimCfg})
	}
	// (b) exponential growth factor E.
	for _, g := range []float64{2, 5, 10, 16, 32} {
		p := e.Params
		p.Queues.Growth = g
		points = append(points, fig14Point{
			table: "b", label: fmt.Sprintf("%g", g), scheds: both, params: p, cfg: e.SimCfg})
	}
	// (c) synchronization interval δ.
	for _, d := range []coflow.Time{2, 4, 8, 12, 16, 20} {
		cfg := e.SimCfg
		cfg.Delta = d * coflow.Millisecond
		points = append(points, fig14Point{
			table: "c", label: fmt.Sprintf("%d", d), scheds: both, params: e.Params, cfg: cfg})
	}
	// (d) arrival-time scaling A (A>1 = arrivals A× faster).
	for _, a := range []float64{0.25, 0.5, 1, 2, 4, 5} {
		a := a
		points = append(points, fig14Point{
			table: "d", label: fmt.Sprintf("%g", a), scheds: both, params: e.Params, cfg: e.SimCfg,
			mutate: func(tr *trace.Trace) { tr.ScaleArrivals(1 / a) }})
	}
	// (e) starvation deadline factor d (Saath only).
	for _, d := range []float64{1, 2, 4, 8, 16} {
		p := e.Params
		p.DeadlineFactor = d
		points = append(points, fig14Point{
			table: "e", label: fmt.Sprintf("%gx", d), scheds: []string{"saath"}, params: p, cfg: e.SimCfg})
	}
	return points
}

// Fig14 runs the five sensitivity sweeps of §6.3. Each point reports
// the median per-CoFlow speedup of the varied scheduler over Aalo at
// default parameters, matching the paper's y-axis. The whole grid is
// one study declaration — every point is a parameter variant, Fig 14e
// restricting itself to Saath — executed on the Env's runner.
func (e *Env) Fig14() ([]*report.Table, error) {
	tr := e.FB
	base, err := e.Run(tr, "aalo") // default-parameter baseline
	if err != nil {
		return nil, err
	}
	baseCCT := base.CCTByID()

	points := e.fig14Points()
	variants := make([]sweep.Variant, len(points))
	for i, pt := range points {
		variants[i] = sweep.Variant{
			Name:       pt.variant(),
			Params:     pt.params,
			Config:     pt.cfg,
			Mutate:     pt.mutate,
			Schedulers: pt.scheds,
		}
	}
	st, err := study.New("fig14-sensitivity",
		study.WithDescription("§6.3 sensitivity: S, E, δ, arrival scaling, deadline factor"),
		study.WithTraces(sweep.FixedTrace(tr)),
		study.WithParamGrid(variants...))
	if err != nil {
		return nil, err
	}
	res, err := e.runStudy(st)
	if err != nil {
		return nil, err
	}
	type cellKey struct{ variant, sched string }
	byCell := make(map[cellKey]*sim.Result, len(res.Sweep().Jobs))
	for _, jr := range res.Sweep().Jobs {
		byCell[cellKey{jr.Job.Variant, jr.Job.Scheduler}] = jr.Res
	}
	median := func(variant, sn string) string {
		return fmt.Sprintf("%.2f", stats.Median(stats.Speedups(baseCCT, byCell[cellKey{variant, sn}].CCTByID())))
	}

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
			row = append(row, median(pt.variant(), sn))
		}
		tables[pt.table].AddRow(row...)
	}
	return []*report.Table{tables["a"], tables["b"], tables["c"], tables["d"], tables["e"]}, nil
}

// Table2 reports the coordinator's scheduling cost for Saath and Aalo:
// schedule-computation wall time (mean, P90 to its histogram bucket,
// max) over a full trace replay, the quantity the paper's Table 2
// measures on the prototype. Read from the engine counters — a Result
// holds no wall-clock — so the two replays run here, unmemoized.
func (e *Env) Table2() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Table 2 — coordinator schedule computation cost",
		Headers: []string{"scheduler", "calls", "mean", "p90 ≤", "max"},
	}
	for _, sn := range []string{"saath", "aalo"} {
		cfg := e.SimCfg
		cfg.Counters = &obs.EngineCounters{} //saath:obs-ok a private run whose result is discarded; only the latency histogram is read
		if _, err := e.RunWith(e.FB, sn, e.Params, cfg); err != nil {
			return nil, err
		}
		h := cfg.Counters.Schedule.Dump(sn) // values in nanoseconds
		t.AddRow(sn, h.Count, time.Duration(h.Mean()).String(),
			time.Duration(h.Quantile(0.9)).String(), time.Duration(h.Max).String())
	}
	return []*report.Table{t}, nil
}

// Fig17 reproduces Appendix A: duration-ordered SJF versus the
// contention-aware LWTF on the two-port example.
func (e *Env) Fig17() ([]*report.Table, error) {
	tr := trace.Fig17Trace()
	t := &report.Table{
		Title:   "Fig 17 — SJF sub-optimality (CCT in units of t=100ms)",
		Headers: []string{"coflow", "sjf-duration", "lwtf"},
	}
	if err := e.Prime([]*trace.Trace{tr}, "sjf-duration", "lwtf"); err != nil {
		return nil, err
	}
	sjf, err := e.Run(tr, "sjf-duration")
	if err != nil {
		return nil, err
	}
	lwtf, err := e.Run(tr, "lwtf")
	if err != nil {
		return nil, err
	}
	unit := trace.MicroUnit.Seconds()
	sm, lm := sjf.CCTByID(), lwtf.CCTByID()
	for id := coflow.CoFlowID(1); id <= 3; id++ {
		t.AddRow(fmt.Sprintf("C%d", id),
			fmt.Sprintf("%.2f", sm[id].Seconds()/unit),
			fmt.Sprintf("%.2f", lm[id].Seconds()/unit))
	}
	t.AddRow("average",
		fmt.Sprintf("%.2f", sjf.AvgCCT()/unit),
		fmt.Sprintf("%.2f", lwtf.AvgCCT()/unit))
	return []*report.Table{t}, nil
}

// AblationWorkConservation quantifies the work-conservation design
// choice (DESIGN.md ablation): Saath with and without it, over Aalo.
func (e *Env) AblationWorkConservation() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation — work conservation",
		Headers: []string{"variant", "fb median speedup over aalo"},
	}
	if err := e.Prime([]*trace.Trace{e.FB}, "aalo", "saath", "saath/nowc"); err != nil {
		return nil, err
	}
	for _, sn := range []string{"saath", "saath/nowc"} {
		sp, err := e.SpeedupOver(e.FB, "aalo", sn)
		if err != nil {
			return nil, err
		}
		t.AddRow(sn, fmt.Sprintf("%.2f", stats.Median(sp)))
	}
	return []*report.Table{t}, nil
}

// AblationContentionMetric compares the paper's blocked-CoFlow count
// k_c against CoFlow width as the LCoF ordering key (DESIGN.md
// ablation): width is cheaper to compute but ignores where the flows
// actually land.
func (e *Env) AblationContentionMetric() ([]*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation — LCoF contention metric",
		Headers: []string{"metric", "fb median speedup over aalo", "fb p90"},
	}
	if err := e.Prime([]*trace.Trace{e.FB}, "aalo", "saath", "saath/width-contention"); err != nil {
		return nil, err
	}
	for _, v := range []struct{ name, label string }{
		{"saath", "blocked-coflow count k_c (paper)"},
		{"saath/width-contention", "width proxy"},
	} {
		sp, err := e.SpeedupOver(e.FB, "aalo", v.name)
		if err != nil {
			return nil, err
		}
		s := stats.Summarize(sp)
		t.AddRow(v.label, fmt.Sprintf("%.2f", s.Median), fmt.Sprintf("%.2f", s.P90))
	}
	return []*report.Table{t}, nil
}

// AblationDynamics quantifies the §4.3 straggler path: median CCT with
// stragglers injected, with and without the SRTF re-queueing.
func (e *Env) AblationDynamics() ([]*report.Table, error) {
	dyn := &sim.Dynamics{Seed: 7, StragglerProb: 0.05, Slowdown: 4}
	cfg := e.SimCfg
	cfg.Dynamics = dyn
	t := &report.Table{
		Title:   "Ablation — cluster-dynamics SRTF approximation (stragglers injected)",
		Headers: []string{"variant", "avg CCT (s)", "p10", "median", "p90 (tail gain)"},
	}
	pOff := e.Params
	pOff.DynamicsSRTF = false
	st, err := study.New("ablation-dynamics",
		study.WithTraces(sweep.FixedTrace(e.FB)),
		study.WithSchedulers("saath"),
		study.WithParamGrid(
			sweep.Variant{Name: "srtf=on", Params: e.Params, Config: cfg},
			sweep.Variant{Name: "srtf=off", Params: pOff, Config: cfg},
		))
	if err != nil {
		return nil, err
	}
	res, err := e.runStudy(st)
	if err != nil {
		return nil, err
	}
	withDyn, s := res.Sweep().Jobs[0].Res, res.Sweep().Jobs[1].Res
	sum := stats.Summarize(stats.Speedups(s.CCTByID(), withDyn.CCTByID()))
	t.AddRow("dynamics SRTF on", fmt.Sprintf("%.3f", withDyn.AvgCCT()),
		fmt.Sprintf("%.2f", sum.P10), fmt.Sprintf("%.2f", sum.Median), fmt.Sprintf("%.2f", sum.P90))
	t.AddRow("dynamics SRTF off", fmt.Sprintf("%.3f", s.AvgCCT()), "1.00", "1.00", "1.00")
	return []*report.Table{t}, nil
}
