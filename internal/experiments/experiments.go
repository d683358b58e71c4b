// Package experiments regenerates every table and figure of the
// paper's evaluation (§2.3 motivation, §6 simulation, §7 testbed,
// Appendix A). Each FigN/TableN function returns ready-to-render
// report tables; cmd/experiments and the root bench suite are thin
// wrappers around this package.
//
// Runs are memoized per Env, so figures that share a (trace,
// scheduler) pair — e.g. Fig. 9 through Fig. 13 all need Aalo and
// Saath on both traces — pay for each simulation once.
//
// Figures that need several simulations declare them as internal/study
// Studies: each figure states the (trace, scheduler, params) grid it
// needs as a study declaration, Prime or the figure's own study runs
// the missing cells on the bounded in-process pool (Env.Parallel
// workers), and the figure assembles
// its tables from the memoized results. Output is identical at any
// parallelism (see internal/sweep's determinism contract).
//
// Scale: the paper's full traces take hours of simulated time; the
// default ScaleQuick environment shrinks the cluster and CoFlow count
// while preserving the workload mix and per-port contention, which is
// what the headline shapes depend on. ScaleFull uses the published
// trace dimensions (526 CoFlows / 150 ports; ~1000 / 100).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"

	_ "saath/internal/core"        // register saath + ablations
	_ "saath/internal/sched/aalo"  // register aalo
	_ "saath/internal/sched/clair" // register scf/srtf/sjf-duration/lwtf
	_ "saath/internal/sched/uctcp" // register uc-tcp
	_ "saath/internal/sched/varys" // register varys
)

// Scale selects the experiment size.
type Scale int

// The supported scales.
const (
	// ScaleQuick runs in seconds; shapes hold, absolute numbers are
	// smaller. Used by tests and benchmarks.
	ScaleQuick Scale = iota
	// ScaleFull uses the published trace dimensions. Minutes per figure.
	ScaleFull
)

// Env carries the workloads and knobs shared by all experiments, plus
// the memoized simulation results.
type Env struct {
	Scale  Scale
	FB     *trace.Trace
	OSP    *trace.Trace
	SimCfg sim.Config
	Params sched.Params

	// Parallel bounds the sweep worker pool used by figure fan-outs
	// (default runtime.NumCPU()). One worker reproduces the old
	// serial behaviour — and identical output.
	Parallel int
	// Progress, when set, receives a callback after every simulation
	// a figure sweep completes (for cmd/experiments' -progress).
	Progress func(done, total int, jr sweep.JobResult)
	// Ctx, when set, cancels figure sweeps mid-flight (cmd/experiments'
	// graceful shutdown); nil means context.Background().
	Ctx context.Context

	mu    sync.Mutex
	cache map[string]*sim.Result
}

// NewEnv builds the standard environment at the given scale with the
// paper's default parameters (K=10, E=10, S=10MB, δ=8ms, d=2).
func NewEnv(scale Scale) *Env {
	e := &Env{
		Scale:    scale,
		SimCfg:   sim.Config{Delta: 8 * coflow.Millisecond},
		Params:   sched.DefaultParams(),
		Parallel: runtime.NumCPU(),
		cache:    make(map[string]*sim.Result),
	}
	switch scale {
	case ScaleFull:
		e.FB = trace.SynthFB(1)
		e.OSP = trace.SynthOSP(1)
	default:
		e.FB = trace.Synthesize(QuickFBConfig(1), "fb-quick")
		e.OSP = trace.Synthesize(QuickOSPConfig(1), "osp-quick")
	}
	return e
}

// QuickFBConfig shrinks the FB-like workload: same mix (23% single
// flow, ~50% equal-length, Table-1 bin shares), smaller cluster, and
// compressed arrivals to keep per-port contention comparable.
func QuickFBConfig(seed int64) trace.SynthConfig {
	cfg := trace.DefaultFBConfig(seed)
	cfg.NumPorts = 40
	cfg.NumCoFlows = 120
	cfg.MeanInterArrival = 40 * coflow.Millisecond
	cfg.MaxLarge = 2 * coflow.GB
	return cfg
}

// QuickOSPConfig shrinks the OSP-like workload, keeping its defining
// property — busier ports than FB.
func QuickOSPConfig(seed int64) trace.SynthConfig {
	cfg := trace.DefaultOSPConfig(seed)
	cfg.NumPorts = 30
	cfg.NumCoFlows = 180
	cfg.MeanInterArrival = 15 * coflow.Millisecond
	cfg.MaxLarge = 4 * coflow.GB
	return cfg
}

// Run simulates tr under the named scheduler with the Env's default
// parameters, memoizing by (trace, scheduler). Safe for concurrent
// use; figures that need several runs should Prime first so the runs
// fan out instead of serializing here.
func (e *Env) Run(tr *trace.Trace, scheduler string) (*sim.Result, error) {
	key := tr.Name + "|" + scheduler
	e.mu.Lock()
	r, ok := e.cache[key]
	e.mu.Unlock()
	if ok {
		return r, nil
	}
	r, err := e.RunWith(tr, scheduler, e.Params, e.SimCfg)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.cache[key] = r
	e.mu.Unlock()
	return r, nil
}

// runner returns the pool figure studies run on.
func (e *Env) runner() study.Pool {
	return study.Pool{Parallel: e.Parallel, Progress: e.Progress}
}

// ctx is the sweep context figure runs execute under.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// runStudy executes a figure's study declaration on the Env's pool,
// failing on the first job error — figures index every cell of their
// grid, so a partial result must error here rather than panic during
// table assembly.
func (e *Env) runStudy(st *study.Study) (*study.Result, error) {
	res, err := st.Run(e.ctx(), e.runner())
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Prime declares the (trace × scheduler) cross product as a study and
// runs every not-yet-memoized cell on the Env's runner. After Prime
// returns nil, Run hits the cache for each pair.
func (e *Env) Prime(traces []*trace.Trace, schedulers ...string) error {
	sources := make([]sweep.TraceSource, len(traces))
	for i, tr := range traces {
		sources[i] = sweep.FixedTrace(tr)
	}
	st, err := study.New("prime",
		study.WithTraces(sources...),
		study.WithSchedulers(schedulers...),
		study.WithParams(e.Params),
		study.WithSimConfig(e.SimCfg))
	if err != nil {
		return err
	}
	var missing []sweep.Job
	e.mu.Lock()
	for _, j := range st.Jobs() {
		if _, ok := e.cache[j.Trace+"|"+j.Scheduler]; !ok {
			missing = append(missing, j)
		}
	}
	e.mu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	res, err := e.runner().Run(e.ctx(), missing, nil)
	if err != nil {
		return err
	}
	if err := res.FirstErr(); err != nil {
		return err
	}
	e.mu.Lock()
	for _, jr := range res.Jobs {
		e.cache[jr.Job.Trace+"|"+jr.Job.Scheduler] = jr.Res
	}
	e.mu.Unlock()
	return nil
}

// RunWith simulates without memoization, for parameter sweeps.
func (e *Env) RunWith(tr *trace.Trace, scheduler string, p sched.Params, cfg sim.Config) (*sim.Result, error) {
	s, err := sched.New(scheduler, p)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(tr.Clone(), s, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", scheduler, tr.Name, err)
	}
	return res, nil
}

// SpeedupOver computes the per-CoFlow speedup distribution of target
// over base (base CCT ÷ target CCT).
func (e *Env) SpeedupOver(tr *trace.Trace, base, target string) ([]float64, error) {
	rb, err := e.Run(tr, base)
	if err != nil {
		return nil, err
	}
	rt, err := e.Run(tr, target)
	if err != nil {
		return nil, err
	}
	return stats.Speedups(rb.CCTByID(), rt.CCTByID()), nil
}

// fctDeviations returns, per multi-flow CoFlow, the normalized stddev
// of its flows' completion times — the out-of-sync metric (§2.3) —
// split by equal/unequal flow lengths.
func fctDeviations(tr *trace.Trace, res *sim.Result) (equal, unequal []float64) {
	class := make(map[coflow.CoFlowID]trace.FlowLengthClass, len(tr.Specs))
	for _, s := range tr.Specs {
		class[s.ID] = trace.Classify(s)
	}
	for _, c := range res.CoFlows {
		if len(c.Flows) <= 1 {
			continue
		}
		fcts := make([]float64, len(c.Flows))
		for i, f := range c.Flows {
			fcts[i] = f.FCT.Seconds()
		}
		dev := stats.NormStdDev(fcts)
		switch class[c.ID] {
		case trace.EqualLength:
			equal = append(equal, dev)
		case trace.UnequalLength:
			unequal = append(unequal, dev)
		}
	}
	return equal, unequal
}

// binSpeedups splits a speedup distribution by the Table-1 bin of each
// CoFlow.
func binSpeedups(tr *trace.Trace, base, target *sim.Result) map[stats.Bin][]float64 {
	bins := make(map[coflow.CoFlowID]stats.Bin, len(tr.Specs))
	for _, s := range tr.Specs {
		bins[s.ID] = stats.AssignBin(s.TotalSize(), s.Width())
	}
	bcct := base.CCTByID()
	out := make(map[stats.Bin][]float64)
	for _, c := range target.CoFlows {
		b, ok := bcct[c.ID]
		if !ok || b <= 0 || c.CCT <= 0 {
			continue
		}
		bin := bins[c.ID]
		out[bin] = append(out[bin], float64(b)/float64(c.CCT))
	}
	return out
}
