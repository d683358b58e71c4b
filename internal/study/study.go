// Package study is the declarative experiment layer over the sweep,
// telemetry and report subsystems: one composable description of a
// paper-style evaluation — workloads × schedulers × parameter grid ×
// seeds, optional per-interval telemetry, and the derived tables
// (CCT comparisons, speedup summaries, CDFs, telemetry condensates)
// that turn raw runs into figures.
//
// A Study is built once with New and functional options, validated at
// construction (unknown schedulers, duplicate names or seeds, and
// baseline typos fail before any simulation runs), compiled to a
// sweep.Grid, and executed on a pluggable Runner:
//
//	st, err := study.New("fb-seeds",
//	    study.WithTraces(sweep.SynthSource("fb", trace.SynthFB)),
//	    study.WithSchedulers("aalo", "saath"),
//	    study.WithSeeds(1, 2, 3),
//	    study.WithBaseline("aalo"),
//	    study.WithDerived(
//	        study.DerivedCCT("per-scheduler CCT"),
//	        study.DerivedSpeedup("speedup over aalo", ""),
//	    ))
//	res, err := st.Run(ctx, study.Pool{Parallel: 8})
//	tables, err := res.Tables()
//
// Two runners ship with the package: Pool (the in-process bounded
// worker pool of internal/sweep) and Sharded (the i-of-n partition of
// the same grid, for spreading a full-scale study across processes or
// machines). Shard outputs merge deterministically — the merged
// summary and telemetry exports are byte-identical to a single-process
// run; see shard.go and the golden test.
package study

import (
	"context"
	"fmt"

	"saath/internal/obs"
	"saath/internal/report"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/sweep"
	"saath/internal/telemetry"
)

// Study is a validated, immutable experiment declaration. Build one
// with New; the zero value is not usable.
type Study struct {
	name       string
	traces     []sweep.TraceSource
	schedulers []string
	seeds      []int64
	variants   []sweep.Variant
	params     sched.Params
	paramsSet  bool
	config     sim.Config
	telemetry  telemetry.Spec
	baseline   string
	derived    []Derived
	exec       sweep.ExecFunc
}

// Option configures a Study under construction. Options returning an
// error abort New.
type Option func(*Study) error

// New builds and validates a Study. Validation is structural — it
// catches the mistakes that would otherwise surface mid-sweep or, in
// the worst case, silently corrupt aggregation: no workloads, unknown
// or duplicate scheduler names, duplicate trace/variant names or seeds
// (which would collide job keys and thus derived RNG streams), and a
// baseline that is not part of the study.
func New(name string, opts ...Option) (*Study, error) {
	if name == "" {
		return nil, fmt.Errorf("study: empty name")
	}
	st := &Study{name: name}
	for _, opt := range opts {
		if err := opt(st); err != nil {
			return nil, fmt.Errorf("study %s: %w", name, err)
		}
	}
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("study %s: %w", name, err)
	}
	return st, nil
}

// WithTraces appends workload sources (see sweep.FixedTrace and
// sweep.SynthSource). At least one is required.
func WithTraces(traces ...sweep.TraceSource) Option {
	return func(st *Study) error {
		st.traces = append(st.traces, traces...)
		return nil
	}
}

// WithSchedulers appends scheduling policies, validated against the
// registry at construction time. At least one is required (directly or
// via a variant's scheduler restriction).
func WithSchedulers(names ...string) Option {
	return func(st *Study) error {
		st.schedulers = append(st.schedulers, names...)
		return nil
	}
}

// WithSeeds appends grid seeds (default {1}). Synthetic workloads are
// regenerated per seed and statistics pool across the draws.
func WithSeeds(seeds ...int64) Option {
	return func(st *Study) error {
		st.seeds = append(st.seeds, seeds...)
		return nil
	}
}

// WithParams sets the scheduler parameters used by variants that do
// not carry their own (default sched.DefaultParams()).
func WithParams(p sched.Params) Option {
	return func(st *Study) error { st.params, st.paramsSet = p, true; return nil }
}

// WithSimConfig sets the simulator configuration used by variants that
// do not carry their own.
func WithSimConfig(cfg sim.Config) Option {
	return func(st *Study) error { st.config = cfg; return nil }
}

// WithParamGrid appends parameter variants — named (params, config,
// trace-mutation, optional scheduler restriction) points the grid
// crosses with traces, seeds and schedulers. Without it the study runs
// a single unnamed variant built from WithParams/WithSimConfig.
func WithParamGrid(variants ...sweep.Variant) Option {
	return func(st *Study) error {
		st.variants = append(st.variants, variants...)
		return nil
	}
}

// WithTelemetry attaches a per-interval telemetry suite to every job
// of the study (per-job seeds are derived from the job identity, so
// exports stay deterministic at any parallelism or sharding).
func WithTelemetry(spec telemetry.Spec) Option {
	return func(st *Study) error { st.telemetry = spec; return nil }
}

// WithBaseline names the scheduler that derived speedup tables compare
// against. It must be one of the study's schedulers.
func WithBaseline(scheduler string) Option {
	return func(st *Study) error { st.baseline = scheduler; return nil }
}

// WithExec sets the body every job of the study runs instead of the
// simulator (the testbed's coordinator-backed testbed.Exec). It is
// compiled onto the jobs, so every runner executes it unchanged.
func WithExec(exec sweep.ExecFunc) Option {
	return func(st *Study) error { st.exec = exec; return nil }
}

// WithDerived appends derived-output builders, rendered in declaration
// order by Result.Tables.
func WithDerived(d ...Derived) Option {
	return func(st *Study) error {
		st.derived = append(st.derived, d...)
		return nil
	}
}

// validate enforces the structural invariants New promises.
func (st *Study) validate() error {
	if len(st.traces) == 0 {
		return fmt.Errorf("no traces (use WithTraces)")
	}
	// Probes in a grid config would be shared across every parallel
	// job — the exact cross-job race WithProbe / Grid.Telemetry exist
	// to prevent (see the sweep.Grid doc). Per-job collection goes
	// through WithTelemetry, which derives a fresh suite per job.
	if len(st.config.Probes) > 0 {
		return fmt.Errorf("WithSimConfig carries probes; use WithTelemetry (probes in a grid config are shared across jobs)")
	}
	for _, v := range st.variants {
		if len(v.Config.Probes) > 0 {
			return fmt.Errorf("variant %q config carries probes; use WithTelemetry", v.Name)
		}
	}
	// Same sharing hazard for engine counters: one instance in a grid
	// config would sum every parallel job's counts into it. Per-job
	// counters come from the sweep observer (Pool.Observer).
	if st.config.Counters != nil {
		return fmt.Errorf("WithSimConfig carries engine counters; use Pool.Observer (counters in a grid config are shared across jobs)")
	}
	for _, v := range st.variants {
		if v.Config.Counters != nil {
			return fmt.Errorf("variant %q config carries engine counters; use Pool.Observer", v.Name)
		}
	}
	seenTrace := make(map[string]bool, len(st.traces))
	for _, ts := range st.traces {
		if ts.Name == "" {
			return fmt.Errorf("trace source with empty name")
		}
		if ts.Gen == nil {
			return fmt.Errorf("trace source %q has no generator", ts.Name)
		}
		if seenTrace[ts.Name] {
			return fmt.Errorf("duplicate trace name %q", ts.Name)
		}
		seenTrace[ts.Name] = true
	}

	registered := make(map[string]bool)
	for _, n := range sched.Names() {
		registered[n] = true
	}
	checkScheds := func(names []string, scope string) error {
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			if !registered[n] {
				return fmt.Errorf("%s: unknown scheduler %q (registered: %v)", scope, n, sched.Names())
			}
			if seen[n] {
				return fmt.Errorf("%s: duplicate scheduler %q", scope, n)
			}
			seen[n] = true
		}
		return nil
	}
	if err := checkScheds(st.schedulers, "schedulers"); err != nil {
		return err
	}

	needGlobal := len(st.variants) == 0
	seenVariant := make(map[string]bool, len(st.variants))
	for _, v := range st.variants {
		if seenVariant[v.Name] {
			return fmt.Errorf("duplicate variant name %q", v.Name)
		}
		seenVariant[v.Name] = true
		if len(v.Schedulers) == 0 {
			needGlobal = true
			continue
		}
		if err := checkScheds(v.Schedulers, "variant "+v.Name); err != nil {
			return err
		}
	}
	if needGlobal && len(st.schedulers) == 0 {
		return fmt.Errorf("no schedulers (use WithSchedulers)")
	}

	seenSeed := make(map[int64]bool, len(st.seeds))
	for _, s := range st.seeds {
		if seenSeed[s] {
			return fmt.Errorf("duplicate seed %d", s)
		}
		seenSeed[s] = true
	}

	if st.baseline != "" {
		found := false
		for _, n := range st.allSchedulers() {
			if n == st.baseline {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("baseline %q is not one of the study's schedulers", st.baseline)
		}
	}
	return nil
}

// allSchedulers returns every scheduler the study can run, global list
// first, then variant-restricted extras in declaration order.
func (st *Study) allSchedulers() []string {
	out := append([]string(nil), st.schedulers...)
	seen := make(map[string]bool, len(out))
	for _, n := range out {
		seen[n] = true
	}
	for _, v := range st.variants {
		for _, n := range v.Schedulers {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// Name returns the study's name.
func (st *Study) Name() string { return st.name }

// Baseline returns the speedup baseline scheduler ("" if unset).
func (st *Study) Baseline() string { return st.baseline }

// Grid compiles the study to the sweep grid it executes. Variants
// inherit study-level settings for whatever they left unset — Params
// as a whole (a zero Params is not a valid configuration), Config
// field by field — so a parameter grid only spells out the knob it
// varies: a variant setting Delta still runs at the study's PortRate.
func (st *Study) Grid() sweep.Grid {
	variants := make([]sweep.Variant, len(st.variants))
	for i, v := range st.variants {
		if v.Params == (sched.Params{}) {
			v.Params = st.effectiveParams()
		}
		v.Config = mergeConfig(v.Config, st.config)
		variants[i] = v
	}
	return sweep.Grid{
		Traces:     st.traces,
		Schedulers: st.schedulers,
		Seeds:      st.seeds,
		Variants:   variants,
		Params:     st.effectiveParams(),
		Config:     st.config,
		Telemetry:  st.telemetry,
		Exec:       st.exec,
	}
}

// mergeConfig fills v's zero-valued fields from the study-level base.
// A variant can override but not un-set: SkipValidation true at study
// level stays true.
func mergeConfig(v, base sim.Config) sim.Config {
	if v.Delta == 0 {
		v.Delta = base.Delta
	}
	if v.PortRate == 0 {
		v.PortRate = base.PortRate
	}
	if v.Horizon == 0 {
		v.Horizon = base.Horizon
	}
	if !v.SkipValidation {
		v.SkipValidation = base.SkipValidation
	}
	if v.Dynamics == nil {
		v.Dynamics = base.Dynamics
	}
	if v.Pipelining == nil {
		v.Pipelining = base.Pipelining
	}
	// Probes and Counters need no merge: validate rejects both in study
	// and variant configs (per-job collection goes through WithTelemetry
	// and Pool.Observer respectively).
	return v
}

func (st *Study) effectiveParams() sched.Params {
	if st.paramsSet {
		return st.params
	}
	return sched.DefaultParams()
}

// Jobs expands the compiled grid in deterministic order (see
// sweep.Grid.Jobs). Every call re-expands; the jobs are cheap
// closures, not simulations.
func (st *Study) Jobs() []sweep.Job { return st.Grid().Jobs() }

// Run executes the study on the given runner (nil: an in-process Pool
// with default parallelism) and aggregates into a Summary. The
// returned error covers structural failures only — per-job simulation
// errors are recorded in the Result (see Result.Err) so partial sweeps
// still render.
func (st *Study) Run(ctx context.Context, r Runner) (*Result, error) {
	if r == nil {
		r = Pool{}
	}
	sum := sweep.NewSummary()
	res, err := r.Run(ctx, st.Jobs(), []sweep.Collector{sum})
	if err != nil {
		return nil, fmt.Errorf("study %s: %w", st.name, err)
	}
	return &Result{study: st, summary: sum, sweep: res}, nil
}

// Result is one study execution: the aggregate summary plus, for live
// (non-merged) runs, the raw sweep result. Results reconstructed from
// shard dumps have a nil Sweep.
type Result struct {
	study   *Study
	summary *sweep.Summary
	sweep   *sweep.Result
}

// Study returns the declaration this result was produced from.
func (r *Result) Study() *Study { return r.study }

// Summary returns the aggregate collector (tables, JSON/CSV exports).
func (r *Result) Summary() *sweep.Summary { return r.summary }

// Sweep returns the raw per-job results in grid order, or nil for a
// result merged from shards.
func (r *Result) Sweep() *sweep.Result { return r.sweep }

// Err returns the first failed job's error in grid order (nil if every
// executed job succeeded). Merged results report errors recorded in
// the shard digests.
func (r *Result) Err() error {
	if r.sweep != nil {
		return r.sweep.FirstErr()
	}
	for _, e := range r.summary.Entries() {
		if e.Metrics.Error != "" {
			return fmt.Errorf("study %s: job %s|%s|%d|%s: %s", r.study.name,
				e.Metrics.Trace, e.Metrics.Variant, e.Metrics.Seed, e.Metrics.Scheduler, e.Metrics.Error)
		}
	}
	return nil
}

// Tables renders the study's derived outputs in declaration order.
// Studies with no WithDerived get the default view: a CCT table, a
// speedup table when a baseline is set, and a telemetry table when
// telemetry is enabled.
func (r *Result) Tables() ([]*report.Table, error) {
	derived := r.study.derived
	if len(derived) == 0 {
		derived = r.defaultDerived()
	}
	var out []*report.Table
	for _, d := range derived {
		tables, err := d(r.study, r.summary)
		if err != nil {
			return nil, fmt.Errorf("study %s: %w", r.study.name, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}

func (r *Result) defaultDerived() []Derived {
	d := []Derived{DerivedCCT(r.study.name + " — per-scheduler CCT")}
	if r.study.baseline != "" {
		d = append(d, DerivedSpeedup(fmt.Sprintf("%s — per-coflow speedup over %s", r.study.name, r.study.baseline), ""))
	}
	if r.study.telemetry.Enabled {
		d = append(d, DerivedTelemetry(r.study.name+" — telemetry (per-interval)"))
	}
	return d
}

// Derived computes tables from a study's aggregated summary. Derived
// functions see only deterministic state (the Summary's grid-order
// entries), so their output is identical for live, parallel and merged
// shard executions of the same study.
type Derived func(st *Study, sum *sweep.Summary) ([]*report.Table, error)

// DerivedCCT renders the per-(workload, scheduler) CCT statistics
// table with seeds pooled.
func DerivedCCT(title string) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		return []*report.Table{sum.CCTTable(title)}, nil
	}
}

// DerivedSpeedup renders the per-CoFlow speedup distribution of every
// other scheduler over baseline ("" uses the study baseline), matched
// per (trace, variant, seed).
func DerivedSpeedup(title, baseline string) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		if baseline == "" {
			baseline = st.baseline
		}
		if baseline == "" {
			return nil, fmt.Errorf("derived speedup %q: no baseline (set WithBaseline)", title)
		}
		return []*report.Table{sum.SpeedupTable(title, baseline)}, nil
	}
}

// DerivedTelemetry renders the pooled per-interval telemetry
// condensate (queue occupancy, HOL blocking, contention quantiles).
func DerivedTelemetry(title string) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		return []*report.Table{sum.TelemetryTable(title)}, nil
	}
}

// DerivedQueueTransitions renders the pooled Fig. 4-style
// queue-transition table: promotions/demotions between priority
// queues and the queue-level distribution per (workload, scheduler)
// cell. The study's telemetry spec must set QueueTransitions.
func DerivedQueueTransitions(title string) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		return []*report.Table{sum.QueueTransitionTable(title)}, nil
	}
}

// DerivedPortHeatmap renders the pooled per-port occupancy heatmap:
// the hottest maxPorts egress and ingress ports of every (workload,
// scheduler) cell with their occupancy-bucket time fractions. The
// study's telemetry spec must set PortHeatmap.
func DerivedPortHeatmap(title string, maxPorts int) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		return []*report.Table{sum.PortHeatmapTable(title, maxPorts)}, nil
	}
}

// DerivedCapacityReport renders the full capacity report over the
// study's cells: completed coflows per simulated second with pooled
// CCT percentiles per cell, the saturation table — knee detection over
// the numeric load axis (a variant sweep, see obs.AxisValue), with a
// hint row when the study has none — and the per-point load-curve
// detail. tol <= 0 uses obs.DefaultKneeTolerance.
func DerivedCapacityReport(title string, tol float64) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		return obs.CapacityReport(title, sum.CapacityCells(), tol), nil
	}
}

// DerivedCCTCDF renders one empirical-CDF table per (workload,
// variant, scheduler) cell, seeds pooled, downsampled to maxRows — the
// shape of the paper's CDF figures, computed from the study itself.
func DerivedCCTCDF(titlePrefix string, maxRows int) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		var out []*report.Table
		for _, g := range sum.CCTGroups() {
			out = append(out, report.SampledCDFTable(
				fmt.Sprintf("%s — CCT CDF (%s, %s)", titlePrefix, g.Label, g.Scheduler),
				"cct (s)", stats.CDF(g.CCTs), maxRows))
		}
		return out, nil
	}
}
