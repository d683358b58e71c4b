// Package saath is a Go implementation of Saath (Jajoo, Gandhi, Hu,
// Koh — CoNEXT 2017), an online CoFlow scheduler that exploits the
// spatial dimension of CoFlows: all-or-none scheduling, per-flow
// queue thresholds, and Least-Contention-First ordering with
// starvation-free deadlines.
//
// The package is the library's public facade, cut to what the programs
// under examples/ and the root tests use: the data model (traces,
// CoFlows, time/byte units), the scheduling policies (Saath and the
// baselines it is evaluated against: Aalo, Varys' SEBF+MADD,
// clairvoyant SCF/SRTF/LWTF, UC-TCP), the simulator, the speedup
// statistics, the sweep engine, the declarative study layer (NewStudy:
// experiment grids executed in-process or as mergeable shards), and
// the coordinator, driven in process on virtual time. Everything
// else — the testbed job body, observability, capacity analytics — is
// reached through the CLIs (cmd/saath-sim) or, inside this module,
// through the internal packages directly.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	tr := saath.SynthFB(1)                       // FB-like workload
//	res, _ := saath.Simulate(tr, "saath", saath.SimConfig{})
//	base, _ := saath.Simulate(tr, "aalo", saath.SimConfig{})
//	fmt.Println(saath.SummarizeSpeedup(base, res)) // e.g. "1.5x median ..."
package saath

import (
	"context"

	"saath/internal/coflow"
	"saath/internal/runtime"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/trace"

	_ "saath/internal/core"        // register saath + ablation variants
	_ "saath/internal/sched/aalo"  // register aalo
	_ "saath/internal/sched/clair" // register scf / srtf / sjf-duration / lwtf
	_ "saath/internal/sched/uctcp" // register uc-tcp
	_ "saath/internal/sched/varys" // register varys
)

// Core data-model types.
type (
	// Time is simulated time in microseconds.
	Time = coflow.Time
	// Bytes is a byte count.
	Bytes = coflow.Bytes
	// Rate is bandwidth in bytes per second.
	Rate = coflow.Rate
	// PortID identifies a cluster node.
	PortID = coflow.PortID
	// CoFlowID identifies a CoFlow.
	CoFlowID = coflow.CoFlowID
	// FlowSpec describes one flow: endpoints and size.
	FlowSpec = coflow.FlowSpec
	// Spec is a CoFlow's static description.
	Spec = coflow.Spec
	// Trace is a CoFlow workload over a cluster.
	Trace = trace.Trace
	// SynthConfig controls the synthetic workload generators.
	SynthConfig = trace.SynthConfig
)

// Unit constants.
const (
	Millisecond = coflow.Millisecond
	KB          = coflow.KB
	MB          = coflow.MB
	GB          = coflow.GB
)

// GbpsRate converts gigabits per second to a Rate.
func GbpsRate(gbps float64) Rate { return coflow.GbpsRate(gbps) }

// Scheduling types.
type (
	// Scheduler is a global CoFlow scheduling policy.
	Scheduler = sched.Scheduler
	// Params carries scheduler knobs (queue ladder, deadline factor,
	// feature toggles); see Params.Queues for the priority-queue
	// ladder (K, S, E).
	Params = sched.Params
)

// Simulation types.
type (
	// SimConfig controls a simulation run (δ, port rate, dynamics).
	SimConfig = sim.Config
	// SimResult is the outcome of one simulation.
	SimResult = sim.Result
	// CoFlowSimResult records one CoFlow's fate in a simulation.
	CoFlowSimResult = sim.CoFlowResult
	// Dynamics injects stragglers and restarts (§4.3).
	Dynamics = sim.Dynamics
	// Pipelining delays per-flow data availability (§4.3).
	Pipelining = sim.Pipelining
	// SpeedupSummary is a median + P10/P90 condensation of a speedup
	// distribution, the paper's bar-chart presentation.
	SpeedupSummary = stats.SpeedupSummary
)

// Parallel sweep engine types (internal/sweep): declarative
// trace × scheduler × seed × variant grids executed on a bounded
// worker pool with deterministic aggregation.
type (
	// SweepGrid declares a sweep as a cross product.
	SweepGrid = sweep.Grid
	// SweepJob is one simulation of a sweep.
	SweepJob = sweep.Job
	// SweepVariant is one parameter point of a sweep.
	SweepVariant = sweep.Variant
	// SweepOptions controls the worker pool and progress streaming.
	SweepOptions = sweep.Options
	// SweepResult holds per-job outcomes in grid order.
	SweepResult = sweep.Result
	// SweepJobResult pairs a job with its outcome.
	SweepJobResult = sweep.JobResult
	// SweepCollector receives completed jobs as they finish.
	SweepCollector = sweep.Collector
	// SweepSummary is the thread-safe aggregate collector (CCT and
	// speedup tables, JSON export).
	SweepSummary = sweep.Summary
	// TraceSource names a workload and builds seeded instances of it.
	TraceSource = sweep.TraceSource
)

// RunSweep executes jobs on a bounded worker pool; see SweepGrid.Jobs
// for expanding a declarative grid. Results are deterministic: the
// same jobs produce identical aggregates at any parallelism.
func RunSweep(ctx context.Context, jobs []SweepJob, opts SweepOptions) *SweepResult {
	return sweep.Run(ctx, jobs, opts)
}

// NewSweepSummary returns an empty aggregate collector for RunSweep.
func NewSweepSummary() *SweepSummary { return sweep.NewSummary() }

// SynthSource builds a seeded synthetic workload per sweep job.
func SynthSource(name string, gen func(seed int64) *Trace) TraceSource {
	return sweep.SynthSource(name, gen)
}

// Streaming telemetry types (internal/telemetry): per-interval
// time-series metrics out of the simulator in bounded memory, with
// deterministic downsampling so sweep exports are byte-identical at
// any parallelism.
type (
	// TelemetrySpec configures the standard collector suite; set it on
	// SweepGrid.Telemetry or WithTelemetry to collect metrics for every
	// job.
	TelemetrySpec = telemetry.Spec
	// TelemetryMetrics is one run's exported telemetry.
	TelemetryMetrics = telemetry.Metrics
)

// SimulateWithTelemetry replays tr under the named scheduler with the
// paper's default parameters and a telemetry suite attached, returning
// both the simulation result and the exported per-interval metrics.
// A spec with Enabled false runs the plain simulation and returns nil
// metrics.
func SimulateWithTelemetry(tr *Trace, scheduler string, cfg SimConfig, spec TelemetrySpec) (*SimResult, *TelemetryMetrics, error) {
	var suite *telemetry.Suite
	if spec.Enabled {
		suite = telemetry.NewSuite(spec)
		cfg = cfg.WithProbe(suite)
	}
	res, err := SimulateWith(tr, scheduler, DefaultParams(), cfg)
	if err != nil {
		return nil, nil, err
	}
	if suite == nil {
		return res, nil, nil
	}
	return res, suite.Metrics(), nil
}

// Declarative study types (internal/study): one composable experiment
// layer over sweep, telemetry and report. A Study is declared once
// with NewStudy + functional options, validated at construction,
// compiled to a SweepGrid, executed in-process (StudyPool) or as shard
// i of n (StudySharded), and rendered to derived tables; shard outputs
// merge byte-identically to a single-process run.
type (
	// Study is a validated, immutable experiment declaration.
	Study = study.Study
	// StudyOption configures a Study under construction (see the
	// With* constructors below).
	StudyOption = study.Option
	// StudyResult is one study execution: aggregate summary, raw
	// per-job results (live runs), derived tables.
	StudyResult = study.Result
	// StudyPool is the in-process bounded worker-pool runner.
	StudyPool = study.Pool
	// StudySharded runs shard i of n of a study's grid; see
	// MergeStudyShards for reassembly.
	StudySharded = study.Sharded
	// StudyShardDump is the serialized output of one sharded run.
	StudyShardDump = study.ShardDump
)

// NewStudy builds and validates a declarative study; see the study
// option constructors below.
func NewStudy(name string, opts ...StudyOption) (*Study, error) {
	return study.New(name, opts...)
}

// Study option constructors, re-exported from internal/study.
var (
	WithDescription = study.WithDescription
	WithTraces      = study.WithTraces
	WithSchedulers  = study.WithSchedulers
	WithSeeds       = study.WithSeeds
	WithTelemetry   = study.WithTelemetry
	WithBaseline    = study.WithBaseline
	WithDerived     = study.WithDerived
)

// Derived-table constructors for WithDerived.
var (
	DerivedCCT       = study.DerivedCCT
	DerivedSpeedup   = study.DerivedSpeedup
	DerivedTelemetry = study.DerivedTelemetry
	DerivedCCTCDF    = study.DerivedCCTCDF
)

// MergeStudyShards reassembles a full study result from shard dumps,
// validating completeness; the merged summary and telemetry exports
// are byte-identical to a single-process run of the same study.
func MergeStudyShards(st *Study, dumps ...*StudyShardDump) (*StudyResult, error) {
	return study.MergeShards(st, dumps...)
}

// Coordinator types (§5).
type (
	// Coordinator is the global coordinator, driven by one caller on
	// virtual time: Register / Deregister / Update, AttachInproc for one
	// in-process agent per port, and StepSchedule once per δ boundary.
	Coordinator = runtime.Coordinator
	// CoordinatorConfig configures the coordinator.
	CoordinatorConfig = runtime.CoordinatorConfig
)

// DefaultParams returns the paper's default configuration: K=10 queues,
// S=10MB start threshold, E=10 growth, d=2 deadline factor, and every
// Saath feature enabled.
func DefaultParams() Params { return sched.DefaultParams() }

// Schedulers lists the registered scheduling policies: "saath" and its
// ablation variants, "aalo", "varys", "scf", "srtf", "sjf-duration",
// "lwtf", and "uc-tcp".
func Schedulers() []string { return sched.Names() }

// NewScheduler instantiates a registered policy.
func NewScheduler(name string, p Params) (Scheduler, error) { return sched.New(name, p) }

// LoadTrace reads a trace file in the public coflow-benchmark format
// (the format of the Facebook trace the paper replays).
func LoadTrace(path string) (*Trace, error) { return trace.ParseFile(path) }

// SynthFB generates the Facebook-like synthetic workload: 150 ports,
// 526 CoFlows, the published width/length-dispersion mix.
func SynthFB(seed int64) *Trace { return trace.SynthFB(seed) }

// Synthesize generates a workload from an explicit configuration.
func Synthesize(cfg SynthConfig, name string) *Trace { return trace.Synthesize(cfg, name) }

// Simulate replays tr under the named scheduler with the paper's
// default parameters. Use SimulateWith for custom parameters.
func Simulate(tr *Trace, scheduler string, cfg SimConfig) (*SimResult, error) {
	return SimulateWith(tr, scheduler, DefaultParams(), cfg)
}

// SimulateWith replays tr under the named scheduler with explicit
// scheduler parameters.
func SimulateWith(tr *Trace, scheduler string, p Params, cfg SimConfig) (*SimResult, error) {
	s, err := sched.New(scheduler, p)
	if err != nil {
		return nil, err
	}
	return sim.Run(tr.Clone(), s, cfg)
}

// Speedups computes the per-CoFlow CCT ratio base/target: values above
// one mean target was faster, the paper's speedup metric (§6.1).
func Speedups(base, target *SimResult) []float64 {
	return stats.Speedups(base.CCTByID(), target.CCTByID())
}

// SummarizeSpeedup condenses Speedups(base, target) into the paper's
// median + P10/P90 presentation.
func SummarizeSpeedup(base, target *SimResult) SpeedupSummary {
	return stats.Summarize(Speedups(base, target))
}

// NewCoordinator returns an idle global coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	return runtime.NewCoordinator(cfg)
}
