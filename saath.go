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
// statistics and the declarative study layer (NewStudy: experiment
// grids executed in-process or as mergeable shards). Everything else —
// the sweep engine, the coordinator and its testbed, observability,
// capacity analytics — is reached through the CLIs (cmd/saath-sim) or,
// inside this module, through the internal packages directly.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	tr := saath.Synthesize(cfg, "fb")            // cfg: a saath.SynthConfig
//	res, _ := saath.Simulate(tr, "saath", saath.SimConfig{})
//	base, _ := saath.Simulate(tr, "aalo", saath.SimConfig{})
//	fmt.Println(saath.SummarizeSpeedup(base, res)) // e.g. "1.5x median ..."
package saath

import (
	"saath/internal/coflow"
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

// Params carries scheduler knobs (queue ladder, deadline factor,
// feature toggles); see Params.Queues for the priority-queue ladder
// (K, S, E).
type Params = sched.Params

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

// TraceSource names a workload and builds seeded instances of it, one
// per study job (internal/sweep).
type TraceSource = sweep.TraceSource

// SynthSource builds a seeded synthetic workload per study job.
func SynthSource(name string, gen func(seed int64) *Trace) TraceSource {
	return sweep.SynthSource(name, gen)
}

// TelemetrySpec configures the streaming telemetry suite
// (internal/telemetry: per-interval time-series metrics in bounded
// memory); set it with WithTelemetry to collect metrics for every job
// of a study. Points (RingCap, ReservoirCap) and progress series
// (ProgressCoFlows) are collected only when asked for, for a raw export.
type TelemetrySpec = telemetry.Spec

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
	// StudyPool is the in-process bounded worker-pool runner.
	StudyPool = study.Pool
	// StudySharded runs shard i of n of a study's grid; saath-sim
	// -merge reassembles the shards.
	StudySharded = study.Sharded
)

// NewStudy builds and validates a declarative study; see the study
// option constructors below.
func NewStudy(name string, opts ...StudyOption) (*Study, error) {
	return study.New(name, opts...)
}

// Study option constructors, re-exported from internal/study.
var (
	WithTraces     = study.WithTraces
	WithSchedulers = study.WithSchedulers
	WithSeeds      = study.WithSeeds
	WithTelemetry  = study.WithTelemetry
	WithBaseline   = study.WithBaseline
	WithDerived    = study.WithDerived
)

// Derived-table constructors for WithDerived.
var (
	DerivedCCT       = study.DerivedCCT
	DerivedSpeedup   = study.DerivedSpeedup
	DerivedTelemetry = study.DerivedTelemetry
	DerivedCCTCDF    = study.DerivedCCTCDF
)

// DefaultParams returns the paper's default configuration: K=10 queues,
// S=10MB start threshold, E=10 growth, d=2 deadline factor, and every
// Saath feature enabled.
func DefaultParams() Params { return sched.DefaultParams() }

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
