// Package sweep is the parallel experiment engine behind the paper's
// evaluation: it expands a declarative grid (trace × scheduler × seed ×
// parameter variant) into simulation jobs, executes them on a bounded
// worker pool, and streams completed runs into thread-safe aggregation.
//
// Determinism is a design requirement — the figures must not depend on
// how many workers happen to run them. Every job is self-contained
// (its trace is generated or cloned inside the job, its dynamics RNG
// seeds are derived from the job identity), results land in a slice
// slot keyed by job index, and aggregation iterates jobs in index
// order. A grid executed with Parallel=1 therefore produces output
// byte-identical to the same grid with Parallel=N.
//
// # Seed derivation
//
// DeriveSeed(base, salt) is the engine's only source of implicit
// randomness, and its salting contract is what keeps grids both
// reproducible and collision-free:
//
//   - The base is the job's grid seed (Job.Seed); the salt is the
//     job's Key() — trace|variant|seed|scheduler — plus a
//     consumer-specific suffix ("|dynamics", "|pipelining",
//     "|telemetry"). Two jobs from the same grid therefore never share
//     an RNG stream, and the same cell re-run (any worker count, any
//     process, any shard) always gets the same stream.
//   - Key() must be unique across a grid expansion for the contract to
//     hold; Grid.Jobs guarantees it as long as trace names, variant
//     names and seeds are themselves distinct (enforced by the
//     compile-time validation in internal/study, and pinned by
//     TestGridJobKeyUniqueness).
//   - Explicit non-zero seeds (Dynamics.Seed, Pipelining.Seed,
//     telemetry.Spec.Seed) are always respected; derivation only fills
//     zeros.
package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// TraceSource names a workload and knows how to build a fresh instance
// of it for a given seed. Gen must return a trace the job may mutate
// (the engine never shares the returned value across jobs).
type TraceSource struct {
	Name string
	Gen  func(seed int64) *trace.Trace
}

// FixedTrace wraps an already-built trace: every job gets its own
// clone and the grid's seeds only vary cluster dynamics, not the
// workload itself.
func FixedTrace(tr *trace.Trace) TraceSource {
	return TraceSource{Name: tr.Name, Gen: func(int64) *trace.Trace { return tr.Clone() }}
}

// SynthSource builds a synthetic workload per seed, so a multi-seed
// grid averages over workload draws.
func SynthSource(name string, gen func(seed int64) *trace.Trace) TraceSource {
	return TraceSource{Name: name, Gen: gen}
}

// Variant is one point of a parameter sweep: a scheduler/simulator
// configuration and an optional trace transform (e.g. arrival
// scaling). An empty Name labels the grid's default configuration.
type Variant struct {
	Name   string
	Params sched.Params
	Config sim.Config
	// Mutate, if set, transforms the job's private trace copy before
	// simulation (Fig 14d's arrival scaling is expressed this way).
	Mutate func(tr *trace.Trace)
	// MutateSeeded, if set, transforms — or wholly regenerates — the
	// job's private trace copy with access to the job's grid seed; it
	// runs after Mutate. Trace-regenerating parameter grids (the
	// fan-degree study rebuilds its incast workload per variant) use it
	// so every grid seed still yields an independent workload draw.
	MutateSeeded func(tr *trace.Trace, seed int64)
	// Schedulers, if non-empty, restricts this variant to the listed
	// policies instead of the grid's scheduler list (Fig 14e evaluates
	// the deadline factor for Saath only).
	Schedulers []string
}

// Grid declares a sweep: the cross product of traces, parameter
// variants, seeds and schedulers. Zero-value fields take defaults
// (one seed, one variant built from Params/Config).
type Grid struct {
	Traces     []TraceSource
	Schedulers []string
	// Seeds defaults to {1}. Each seed is passed to the trace source
	// and used to derive per-job dynamics/pipelining seeds.
	Seeds []int64
	// Variants defaults to a single unnamed variant using Params and
	// Config below.
	Variants []Variant
	Params   sched.Params
	Config   sim.Config

	// Telemetry, when Enabled, attaches a fresh telemetry.Suite to
	// every job. A zero Seed is derived per job from the job identity,
	// so exported metrics are deterministic at any parallelism. Use
	// this instead of Config.Probes in grids — probes placed in Config
	// would be shared across jobs.
	Telemetry telemetry.Spec

	// Exec, when set, is the body every job of the grid runs instead
	// of the simulator (see ExecFunc).
	Exec ExecFunc
}

// Jobs expands the grid in deterministic order: trace-major, then
// variant, seed, scheduler.
func (g Grid) Jobs() []Job {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	variants := g.Variants
	if len(variants) == 0 {
		variants = []Variant{{Params: g.Params, Config: g.Config}}
	}
	var jobs []Job
	for _, ts := range g.Traces {
		for _, v := range variants {
			schedulers := g.Schedulers
			if len(v.Schedulers) > 0 {
				schedulers = v.Schedulers
			}
			for _, seed := range seeds {
				for _, sn := range schedulers {
					jobs = append(jobs, Job{
						Index:     len(jobs),
						Trace:     ts.Name,
						Scheduler: sn,
						Seed:      seed,
						Variant:   v.Name,
						Params:    v.Params,
						Config:    v.Config,
						Telemetry: g.Telemetry,
						Gen:       bindGen(ts, v, seed),
						Exec:      g.Exec,
					})
				}
			}
		}
	}
	return jobs
}

func bindGen(ts TraceSource, v Variant, seed int64) func() *trace.Trace {
	return func() *trace.Trace {
		tr := ts.Gen(seed)
		if v.Mutate == nil && v.MutateSeeded == nil {
			return tr
		}
		// Defensive clone before mutating: Gen's contract says the
		// returned trace is private to the job, but a hand-built source
		// that returns a shared instance would otherwise leak this
		// variant's mutation into every sibling job of the grid. The
		// clone makes that class of bug structurally impossible, at the
		// cost of one trace copy per mutating job (microseconds against
		// a simulation's seconds).
		tr = tr.Clone()
		if v.Mutate != nil {
			v.Mutate(tr)
		}
		if v.MutateSeeded != nil {
			v.MutateSeeded(tr, seed)
		}
		return tr
	}
}

// Job is one simulation to run: a scheduler on a trace under a
// parameter variant. Jobs built by Grid.Jobs are self-contained;
// hand-built jobs must set Gen to return a private trace copy.
type Job struct {
	Index     int
	Trace     string
	Scheduler string
	Seed      int64
	Variant   string
	Params    sched.Params
	Config    sim.Config
	Telemetry telemetry.Spec
	Gen       func() *trace.Trace
	// Exec is the job's body; nil runs the simulator.
	Exec ExecFunc
}

// ExecFunc is the body of one job: it fills jr.Res (and jr.Metrics or
// jr.Runtime when it has them) or returns the job's error. The pool
// owns everything around it — timing, the obs span and job record,
// skipping after cancellation, panic containment and serialized
// delivery — so a body only runs the workload. span and counters are
// the pool's out-of-band observation handles, both nil without an
// Observer (a nil span's methods are no-ops). A body must keep the
// result a pure function of the job: same job, same bytes, on any
// worker of any process.
type ExecFunc func(j Job, jr *JobResult, span *obs.Span, counters *obs.EngineCounters) error

// Key identifies the job in the grid (everything but the index): the
// salt of its seed derivation. It keeps its "|"-joined format because
// DeriveSeed and the grid fingerprint hash it, so changing it would
// re-key every digest.
func (j Job) Key() string {
	return fmt.Sprintf("%s|%s|%d|%s", j.Trace, j.Variant, j.Seed, j.Scheduler)
}

// JobResult pairs a job with its outcome. Exactly one of Res/Err is
// meaningful; Elapsed and Runtime are wall-clock (informational only —
// never part of aggregated output, which must stay deterministic).
type JobResult struct {
	Job     Job
	Res     *sim.Result
	Err     error
	Elapsed time.Duration
	// Runtime is the coordinator's measurement of the job when its body
	// drove the real system (the testbed), nil otherwise.
	Runtime *obs.RuntimeRecord
	// Metrics holds the job's exported telemetry when Job.Telemetry
	// was enabled (nil otherwise, or on error). Like Res, it is a pure
	// function of the job identity — never of execution interleaving.
	Metrics *telemetry.Metrics
}

// Collector receives completed jobs as they finish. Add is called
// under the engine's serialization lock, so implementations need no
// locking of their own for engine-driven calls, but Summary locks
// anyway so it can also be fed by hand.
type Collector interface {
	Add(JobResult)
}

// Options controls one engine invocation.
type Options struct {
	// Parallel bounds the worker pool; <=0 means runtime.NumCPU().
	Parallel int
	// Progress, if set, is called after every job completes (done is
	// the completion count so far). Calls are serialized; completion
	// order is nondeterministic under parallelism.
	Progress ProgressFunc
	// Collectors are streamed every completed job (serialized).
	Collectors []Collector
	// Observer, when non-nil, collects per-job run-trace spans and
	// engine counters into an obs manifest. Observation is out-of-band:
	// it never changes a job's seeds, RNG draws, or results, so every
	// determinism golden holds with it attached (nil disables at zero
	// cost).
	Observer *obs.Recorder
}

// Result is the outcome of a sweep, with Jobs in grid order regardless
// of execution interleaving.
type Result struct {
	Jobs    []JobResult
	Elapsed time.Duration
}

// FirstErr returns the first failed job's error in grid order, nil if
// every job succeeded.
func (r *Result) FirstErr() error {
	for _, jr := range r.Jobs {
		if jr.Err != nil {
			return jr.Err
		}
	}
	return nil
}

// Failed returns the failed jobs in grid order.
func (r *Result) Failed() []JobResult {
	var out []JobResult
	for _, jr := range r.Jobs {
		if jr.Err != nil {
			out = append(out, jr)
		}
	}
	return out
}

// Completed counts successful jobs.
func (r *Result) Completed() int {
	n := 0
	for _, jr := range r.Jobs {
		if jr.Err == nil {
			n++
		}
	}
	return n
}

// RuntimeReport collects the coordinator measurements of the jobs that
// carry one (testbed-backed studies), in grid order. Wall-clock of
// this machine: out-of-band, never part of the deterministic tables.
func (r *Result) RuntimeReport() *obs.RuntimeReport {
	rep := &obs.RuntimeReport{}
	for _, jr := range r.Jobs {
		if jr.Runtime != nil {
			rep.Records = append(rep.Records, *jr.Runtime)
		}
	}
	return rep
}

// Run executes jobs on a bounded worker pool. A job failing — or
// panicking — records its error in the corresponding slot and does not
// stop the sweep; cancelling ctx stops handing out new jobs (in-flight
// simulations finish — sim.Run is not interruptible) and marks
// never-started jobs with the context error. Run never returns nil.
func Run(ctx context.Context, jobs []Job, opts Options) *Result {
	start := time.Now() // Result.Elapsed is reporting-only, never study bytes
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]JobResult, len(jobs))
	ran := make([]bool, len(jobs))

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // serializes done/Progress/Collectors
		done int
	)
	deliver := func(jr JobResult) {
		mu.Lock()
		defer mu.Unlock()
		done++
		for _, c := range opts.Collectors {
			c.Add(jr)
		}
		if opts.Progress != nil {
			opts.Progress(done, len(jobs), jr)
		}
	}

	feed := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				jr := runJob(ctx, jobs[i], opts.Observer)
				out[i], ran[i] = jr, true
				deliver(jr)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	for i := range out {
		if !ran[i] {
			jr := JobResult{Job: jobs[i], Err: fmt.Errorf("sweep: job %s skipped: %w", jobs[i].Key(), ctx.Err())}
			out[i] = jr
			deliver(jr)
		}
	}
	return &Result{Jobs: out, Elapsed: time.Since(start)}
}

// runJob is the one job boundary: it runs the job's body (Job.Exec,
// the simulator by default) and owns what every body shares — the
// Elapsed stamp, the obs span and job record (which carries any
// runtime record), the skip once ctx is cancelled, and panic
// containment: a panic in a scheduler, the allocation audit or the
// coordinator costs this job an error naming where it blew up, never
// the worker or its siblings. The result is named so the deferred
// stamp lands in what the caller receives, whichever way the body
// leaves.
func runJob(ctx context.Context, j Job, rec *obs.Recorder) (jr JobResult) {
	jr = JobResult{Job: j}
	start := time.Now() // JobResult.Elapsed is reporting-only, never study bytes
	var span *obs.Span
	var counters *obs.EngineCounters
	if rec.Enabled() {
		span = obs.StartSpan("job:" + j.Key())
		counters = &obs.EngineCounters{}
	}
	defer func() {
		if p := recover(); p != nil {
			jr.Res, jr.Metrics, jr.Runtime = nil, nil, nil
			jr.Err = fmt.Errorf("sweep: job %s panicked: %v%s", j.Key(), p, panicSite())
		}
		jr.Elapsed = time.Since(start)
		if !rec.Enabled() {
			return
		}
		span.End()
		errStr := ""
		if jr.Err != nil {
			errStr = jr.Err.Error()
		}
		rec.RecordJob(obs.JobRecord{
			Index:     j.Index,
			Trace:     j.Trace,
			Variant:   j.Variant,
			Scheduler: j.Scheduler,
			Seed:      j.Seed,
			Error:     errStr,
			Span:      span,
			Counters:  counters,
			Runtime:   jr.Runtime,
		})
	}()
	if err := ctx.Err(); err != nil {
		jr.Err = fmt.Errorf("sweep: job %s skipped: %w", j.Key(), err)
		return jr
	}
	exec := j.Exec
	if exec == nil {
		exec = simulate
	}
	jr.Err = exec(j, &jr, span, counters)
	return jr
}

// panicSite renders where a recovered panic was raised: the frames
// between the panic and the pool's job boundary, innermost first, at
// most eight. Call it from the recovering deferred function.
func panicSite() string {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)]) // skip Callers, panicSite, the deferred func
	var b strings.Builder
	for n := 0; n < 8; {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "sweep.runJob") {
			break
		}
		if !strings.HasPrefix(f.Function, "runtime.") { // gopanic, panicmem, sigpanic, ...
			fmt.Fprintf(&b, "\n\tat %s (%s:%d)", f.Function, filepath.Base(f.File), f.Line)
			n++
		}
		if !more {
			break
		}
	}
	return b.String()
}

// simulate is the default job body: one simulator run. It derives
// deterministic RNG seeds for dynamics/pipelining/telemetry from the
// job identity when the caller left them zero (so every cell of a grid
// gets distinct but reproducible noise), and times the job's phases
// (trace synthesis, run loop, metrics export) under span — all
// out-of-band, never touching the seeds or results.
func simulate(j Job, jr *JobResult, span *obs.Span, counters *obs.EngineCounters) error {
	if j.Gen == nil {
		return fmt.Errorf("sweep: job %s has no trace generator", j.Key())
	}
	s, err := sched.New(j.Scheduler, j.Params)
	if err != nil {
		return fmt.Errorf("sweep: job %s: %w", j.Key(), err)
	}
	cfg := j.Config
	cfg.Counters = counters // nil when observation is off
	if cfg.Dynamics != nil {
		d := *cfg.Dynamics
		if d.Seed == 0 {
			d.Seed = DeriveSeed(j.Seed, j.Key()+"|dynamics")
		}
		cfg.Dynamics = &d
	}
	if cfg.Pipelining != nil {
		p := *cfg.Pipelining
		if p.Seed == 0 {
			p.Seed = DeriveSeed(j.Seed, j.Key()+"|pipelining")
		}
		cfg.Pipelining = &p
	}
	var suite *telemetry.Suite
	if j.Telemetry.Enabled {
		spec := j.Telemetry
		if spec.Seed == 0 {
			spec.Seed = DeriveSeed(j.Seed, j.Key()+"|telemetry")
		}
		suite = telemetry.NewSuite(spec)
		// Copy-safe attach: never share a probe backing array (and
		// thus a Suite) with sibling jobs of the same grid.
		cfg = cfg.WithProbe(suite)
	}
	synth := span.Child("trace-synth")
	tr := j.Gen()
	synth.End()
	runSpan := span.Child("run")
	res, err := sim.Run(tr, s, cfg)
	runSpan.End()
	if err != nil {
		return fmt.Errorf("sweep: job %s: %w", j.Key(), err)
	}
	jr.Res = res
	if suite != nil {
		export := span.Child("export")
		jr.Metrics = suite.Metrics()
		export.End()
	}
	return nil
}

// DeriveSeed mixes a base seed with a salt string into a stable,
// non-zero RNG seed (FNV-1a over both).
func DeriveSeed(base int64, salt string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", base, salt)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}
