// Package saath is a Go implementation of Saath (Jajoo, Gandhi, Hu,
// Koh — CoNEXT 2017), an online CoFlow scheduler that exploits the
// spatial dimension of CoFlows: all-or-none scheduling, per-flow
// queue thresholds, and Least-Contention-First ordering with
// starvation-free deadlines.
//
// The package is the library's public facade. It re-exports the data
// model (traces, CoFlows, time/byte units), the scheduling policies
// (Saath and the baselines it is evaluated against: Aalo, Varys'
// SEBF+MADD, clairvoyant SCF/SRTF/LWTF, UC-TCP), the discrete-time
// cluster simulator, the statistics helpers behind the paper's
// figures, the declarative study layer (NewStudy: experiment grids
// with pluggable in-process or sharded execution), the distributed
// coordinator/agent prototype, and the testbed subsystem that runs
// studies through the real coordinator with in-process agents.
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
	"io"
	"time"

	"saath/internal/coflow"
	"saath/internal/fleet"
	"saath/internal/obs"
	"saath/internal/report"
	"saath/internal/runtime"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/testbed"
	"saath/internal/trace"

	_ "saath/internal/core"         // register saath + ablation variants
	_ "saath/internal/sched/aalo"   // register aalo
	_ "saath/internal/sched/baraat" // register baraat + baraat/fifo
	_ "saath/internal/sched/clair"  // register scf / srtf / sjf-duration / lwtf
	_ "saath/internal/sched/uctcp"  // register uc-tcp
	_ "saath/internal/sched/varys"  // register varys
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
	Microsecond = coflow.Microsecond
	Millisecond = coflow.Millisecond
	Second      = coflow.Second
	KB          = coflow.KB
	MB          = coflow.MB
	GB          = coflow.GB
	TB          = coflow.TB
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
	// RateVec is the dense per-interval allocation vector (rates keyed
	// by flow index) that schedulers return and telemetry probes read
	// via TelemetryInterval.Alloc.
	RateVec = sched.RateVec
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
	// Engine is a reusable, validated simulation engine: one SimConfig,
	// any number of independent runs. Build one with NewEngine.
	Engine = sim.Engine
)

// NewEngine validates cfg and returns its reusable engine.
// Simulate/SimulateWith remain the one-shot forms; they route through
// the same validation and run loop.
func NewEngine(cfg SimConfig) (Engine, error) { return sim.New(cfg) }

// Statistics types.
type (
	// SpeedupSummary is a median + P10/P90 condensation of a speedup
	// distribution, the paper's bar-chart presentation.
	SpeedupSummary = stats.SpeedupSummary
	// CDFPoint is one point of an empirical CDF.
	CDFPoint = stats.CDFPoint
	// JCTModel maps CCT improvements to job completion times (Fig. 16).
	JCTModel = stats.JCTModel
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

// FixedTrace wraps an already-built trace as a sweep source (every job
// simulates its own clone).
func FixedTrace(tr *Trace) TraceSource { return sweep.FixedTrace(tr) }

// SynthSource builds a seeded synthetic workload per sweep job.
func SynthSource(name string, gen func(seed int64) *Trace) TraceSource {
	return sweep.SynthSource(name, gen)
}

// Streaming telemetry types (internal/telemetry): per-interval
// time-series metrics out of the simulator in bounded memory, with
// deterministic downsampling so sweep exports are byte-identical at
// any parallelism.
type (
	// TelemetryProbe receives one observation per scheduling interval;
	// attach probes via SimConfig.Probes.
	TelemetryProbe = telemetry.Probe
	// TelemetryInterval is the engine's per-interval observation.
	TelemetryInterval = telemetry.Interval
	// TelemetrySpec configures the standard collector suite; set it on
	// SweepGrid.Telemetry to collect metrics for every sweep job.
	TelemetrySpec = telemetry.Spec
	// TelemetrySuite is the standard collector set (queue occupancy,
	// utilization, HOL blocking, contention histograms, progress).
	TelemetrySuite = telemetry.Suite
	// TelemetryMetrics is one run's exported telemetry.
	TelemetryMetrics = telemetry.Metrics
)

// NewTelemetrySuite builds the standard telemetry collector set.
func NewTelemetrySuite(spec TelemetrySpec) *TelemetrySuite { return telemetry.NewSuite(spec) }

// SimulateWithTelemetry replays tr under the named scheduler with the
// paper's default parameters and a telemetry suite attached, returning
// both the simulation result and the exported per-interval metrics.
// A spec with Enabled false runs the plain simulation and returns nil
// metrics.
func SimulateWithTelemetry(tr *Trace, scheduler string, cfg SimConfig, spec TelemetrySpec) (*SimResult, *TelemetryMetrics, error) {
	var suite *TelemetrySuite
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
// compiled to a SweepGrid, executed on a pluggable StudyRunner
// (in-process pool or i-of-n shard), and rendered to derived tables;
// shard outputs merge byte-identically to a single-process run.
type (
	// Study is a validated, immutable experiment declaration.
	Study = study.Study
	// StudyOption configures a Study under construction (see the
	// With* constructors below).
	StudyOption = study.Option
	// StudyResult is one study execution: aggregate summary, raw
	// per-job results (live runs), derived tables.
	StudyResult = study.Result
	// StudyRunner is a pluggable execution backend for a study.
	StudyRunner = study.Runner
	// StudyPool is the in-process bounded worker-pool runner.
	StudyPool = study.Pool
	// StudySharded runs shard i of n of a study's grid; see
	// MergeStudyShards for reassembly.
	StudySharded = study.Sharded
	// StudyDerived computes tables from a study's aggregated summary.
	StudyDerived = study.Derived
	// StudyShardDump is the serialized output of one sharded run.
	StudyShardDump = study.ShardDump
	// StudyRunnerOpts carries the execution knobs (parallelism,
	// progress callback, observer) a CLI hands any runner backend.
	StudyRunnerOpts = study.RunnerOpts
	// StudyRunnerFactory builds a named runner backend for one study
	// execution; register with RegisterStudyRunner.
	StudyRunnerFactory = study.RunnerFactory
	// StudyRuntimeReporter is implemented by runners that measure the
	// real system out-of-band (the testbed backend); the wall-clock
	// report never contaminates the deterministic study output.
	StudyRuntimeReporter = study.RuntimeReporter
)

// NewStudy builds and validates a declarative study; see the study
// option constructors (WithTraces, WithSchedulers, WithParamGrid,
// WithSeeds, WithSimConfig, WithTelemetry, WithBaseline, WithDerived).
func NewStudy(name string, opts ...StudyOption) (*Study, error) {
	return study.New(name, opts...)
}

// Study option constructors, re-exported from internal/study.
var (
	WithDescription = study.WithDescription
	WithTraces      = study.WithTraces
	WithSchedulers  = study.WithSchedulers
	WithSeeds       = study.WithSeeds
	WithParams      = study.WithParams
	WithSimConfig   = study.WithSimConfig
	WithParamGrid   = study.WithParamGrid
	WithTelemetry   = study.WithTelemetry
	WithBaseline    = study.WithBaseline
	WithDerived     = study.WithDerived
	WithRunner      = study.WithRunner
)

// Derived-table constructors for WithDerived.
var (
	DerivedCCT              = study.DerivedCCT
	DerivedSpeedup          = study.DerivedSpeedup
	DerivedTelemetry        = study.DerivedTelemetry
	DerivedCCTCDF           = study.DerivedCCTCDF
	DerivedQueueTransitions = study.DerivedQueueTransitions
	DerivedPortHeatmap      = study.DerivedPortHeatmap
	DerivedCapacity         = study.DerivedCapacity
	DerivedSaturation       = study.DerivedSaturation
	DerivedCapacityReport   = study.DerivedCapacityReport
)

// Observability types (internal/obs): out-of-band execution
// introspection — per-job phase spans, engine introspection counters,
// run manifests, and capacity/saturation analytics. Attaching any of
// it never changes a study's output bytes; with nothing attached the
// engine's counter hooks cost zero allocations.
type (
	// ObsRecorder collects per-job spans and counters during a study
	// run; set it on StudyPool.Observer and read ObsRecorder.Manifest
	// afterwards. A nil recorder disables collection.
	ObsRecorder = obs.Recorder
	// ObsManifest is one run's collected observability digest.
	ObsManifest = obs.Manifest
	// ObsSpan is one timed phase of an execution, with children.
	ObsSpan = obs.Span
	// EngineCounters is the engine's introspection block: events by
	// kind, heap depth high-water mark, epochs, schedule-call latency
	// histogram. Attach a fresh one per run via SimConfig.Counters.
	EngineCounters = obs.EngineCounters
	// CapacityCell is one pooled (workload, variant, scheduler)
	// throughput/latency measurement; see SweepSummary.CapacityCells.
	CapacityCell = obs.Cell
	// SaturationKnee is a detected departure from linearity in a
	// load → latency curve.
	SaturationKnee = obs.Knee
	// RuntimeRecord is one job's wall-clock coordinator measurement
	// (agents, admissions, schedule-latency percentiles), collected
	// out-of-band by the testbed runner.
	RuntimeRecord = obs.RuntimeRecord
	// RuntimeReport is a sorted, mergeable set of RuntimeRecords; it
	// travels in the obs manifest's runtime section.
	RuntimeReport = obs.RuntimeReport
	// ReportTable is one rendered results table (internal/report),
	// the unit every derived-table constructor produces.
	ReportTable = report.Table
)

// NewRuntimeTable renders a runtime report as the CLI's
// "coordinator runtime" table.
func NewRuntimeTable(title string, rep *RuntimeReport) *ReportTable {
	return obs.RuntimeTable(title, rep)
}

// NewObsRecorder returns an enabled observability recorder labeled
// with the study name.
func NewObsRecorder(study string) *ObsRecorder { return obs.NewRecorder(study) }

// DetectSaturationKnee finds where latencies depart the linear trend
// of their low-load prefix; tol <= 0 uses the default 50% departure.
func DetectSaturationKnee(loads, latencies []float64, tol float64) SaturationKnee {
	return obs.DetectKnee(loads, latencies, tol)
}

// RegisteredStudies lists the named studies of the built-in catalog
// (plus anything the program registered via RegisterStudy) — the
// namespace behind saath-sim/experiments -study.
func RegisteredStudies() []string { return study.Names() }

// RegisterStudy adds a named study to the catalog.
func RegisterStudy(name, description string, build func() (*Study, error)) {
	study.Register(name, description, build)
}

// BuildStudy constructs a registered study by name.
func BuildStudy(name string) (*Study, error) { return study.Build(name) }

// RegisterStudyRunner adds a named runner backend to the registry a
// study selects from via WithRunner ("" always means the in-process
// StudyPool; the testbed subsystem registers "testbed").
func RegisterStudyRunner(name string, f StudyRunnerFactory) { study.RegisterRunner(name, f) }

// StudyRunnerNames lists the registered runner backends.
func StudyRunnerNames() []string { return study.RunnerNames() }

// NewStudyRunnerFor builds the runner backend a study declared via
// WithRunner, configured with opts; studies with no declared backend
// get the default in-process pool.
func NewStudyRunnerFor(st *Study, opts StudyRunnerOpts) (StudyRunner, error) {
	return study.NewRunnerFor(st, opts)
}

// MergeStudyShards reassembles a full study result from shard dumps,
// validating completeness; the merged summary and telemetry exports
// are byte-identical to a single-process run of the same study.
func MergeStudyShards(st *Study, dumps ...*StudyShardDump) (*StudyResult, error) {
	return study.MergeShards(st, dumps...)
}

// ReadStudyShard parses one shard dump written by StudyResult.WriteShard.
func ReadStudyShard(r io.Reader) (*StudyShardDump, error) { return study.ReadShard(r) }

// Fleet types (internal/fleet): distributing a registered study across
// worker processes with driver-owned robustness — per-attempt deadlines
// and stall detection, bounded deterministic-backoff retry, re-queueing
// a dead worker's shard onto surviving slots, and grid-fingerprint
// validation. Merged output is byte-identical to a single-process run;
// retries and injected faults leave traces only in the FleetReport.
type (
	// FleetOptions configures a fleet run: backend, worker slots, task
	// partition, retry/deadline/stall policy, and optional chaos.
	FleetOptions = fleet.Options
	// FleetOutput is a completed fleet run: the merged result, the
	// per-shard attempt report, and aggregated obs totals.
	FleetOutput = fleet.Output
	// FleetBackend launches worker processes; LocalExecBackend is the
	// built-in subprocess backend, and the interface is the seam for
	// ssh/k8s-style launchers.
	FleetBackend = fleet.Backend
	// FleetTask identifies one shard attempt handed to a backend.
	FleetTask = fleet.Task
	// FleetProc is a launched worker: its event stream plus kill/wait.
	FleetProc = fleet.Proc
	// LocalExecBackend runs each shard as a local worker subprocess
	// (saath-sim -shard-stream), results streamed over stdout.
	LocalExecBackend = fleet.LocalExec
	// FleetChaos injects worker faults (kill, hang, corrupt, slow) on a
	// shard's first attempt — drills for the driver's recovery paths.
	FleetChaos = fleet.Chaos
	// FleetReport is the structured failure report in the obs manifest:
	// per-shard attempt history, retries, stragglers, outcomes.
	FleetReport = obs.FleetReport
)

// RunFleet executes a study across worker processes per opts and
// merges the shard dumps; the output is byte-identical to running the
// study in-process regardless of worker count, partition, or retries.
func RunFleet(ctx context.Context, st *Study, opts FleetOptions) (*FleetOutput, error) {
	return fleet.Run(ctx, st, opts)
}

// ParseFleetChaos parses a comma-separated fault spec such as
// "kill=0,corrupt=3" (modes: kill, hang, corrupt, slow).
func ParseFleetChaos(spec string) (*FleetChaos, error) { return fleet.ParseChaos(spec) }

// SynthIncast generates the incast workload: Degree senders converging
// on one of a few hot aggregator ports per CoFlow.
func SynthIncast(seed int64) *Trace { return trace.SynthIncast(seed) }

// SynthBroadcast generates the broadcast workload: one root port
// fanning out to Degree receivers per CoFlow.
func SynthBroadcast(seed int64) *Trace { return trace.SynthBroadcast(seed) }

// Workload-mix types (internal/trace): deterministic interleaving of
// several seeded workload families into one trace, the substrate of
// the trace-mix catalog study.
type (
	// MixConfig controls MixTraces (seed, CoFlow budget, arrival gaps).
	MixConfig = trace.MixConfig
	// MixComponent is one weighted ingredient of a mixed workload.
	MixComponent = trace.MixComponent
)

// MixTraces deterministically interleaves the component workloads:
// CoFlows are drawn per component weight in component arrival order,
// re-identified and re-timestamped, with every flow's endpoints and
// bytes preserved verbatim — byte-identical for a given configuration
// at any parallelism or sharding.
func MixTraces(name string, cfg MixConfig, components ...MixComponent) (*Trace, error) {
	return trace.Mix(name, cfg, components...)
}

// SynthMix generates the default mixed workload: FB-like shuffle
// interleaved 50/50 with the incast hotspot family.
func SynthMix(seed int64) *Trace { return trace.SynthMix(seed) }

// Prototype (distributed runtime) types.
type (
	// Coordinator is the global coordinator daemon.
	Coordinator = runtime.Coordinator
	// CoordinatorConfig configures the coordinator.
	CoordinatorConfig = runtime.CoordinatorConfig
	// Agent is a per-node local agent.
	Agent = runtime.Agent
	// AgentConfig configures an agent.
	AgentConfig = runtime.AgentConfig
	// Client is the framework-facing REST client (register /
	// deregister / update).
	Client = runtime.Client
	// CoFlowRunResult is a completed CoFlow measured by the
	// coordinator on the prototype.
	CoFlowRunResult = runtime.CoFlowResult
	// InprocAgent is a simulated per-port agent attached to a
	// coordinator through the in-memory transport seam — no sockets,
	// so 10^5 agents fit in one process.
	InprocAgent = runtime.InprocAgent
	// VirtualClock is a manually-advanced clock; a coordinator built
	// on one produces deterministic, parallelism-independent results.
	VirtualClock = runtime.VirtualClock
	// AdmissionConfig is the coordinator's token-bucket admission
	// front: Register calls beyond the sustained rate + burst are
	// rejected at arrival time with ErrAdmission.
	AdmissionConfig = runtime.AdmissionConfig
)

// Coordinator admission sentinel errors.
var (
	// ErrAdmission reports a registration rejected by the
	// coordinator's token-bucket admission front.
	ErrAdmission = runtime.ErrAdmission
	// ErrCoFlowDuplicate reports a registration whose ID is already
	// live on the coordinator.
	ErrCoFlowDuplicate = runtime.ErrDuplicate
)

// NewVirtualClock returns a virtual clock pinned at start; advance it
// explicitly with Set or Advance.
func NewVirtualClock(start time.Time) *VirtualClock { return runtime.NewVirtualClock(start) }

// DefaultParams returns the paper's default configuration: K=10 queues,
// S=10MB start threshold, E=10 growth, d=2 deadline factor, and every
// Saath feature enabled.
func DefaultParams() Params { return sched.DefaultParams() }

// Schedulers lists the registered scheduling policies: "saath" and its
// ablation variants, "aalo", "baraat", "varys", "scf", "srtf", "sjf-duration",
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

// SynthOSP generates the online-service-provider-like workload:
// 100 ports, ~1000 CoFlows, busier ports than FB.
func SynthOSP(seed int64) *Trace { return trace.SynthOSP(seed) }

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

// NewCoordinator starts the prototype's global coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	return runtime.NewCoordinator(cfg)
}

// NewAgent starts a prototype local agent.
func NewAgent(cfg AgentConfig) (*Agent, error) { return runtime.NewAgent(cfg) }

// NewClient returns a framework-facing REST client for a coordinator's
// HTTP address.
func NewClient(httpAddr string) *Client { return runtime.NewClient(httpAddr) }

// Testbed types (internal/testbed): the coordinator-backed study
// backend. Jobs run through the real coordinator with in-process
// simulated agents on a virtual clock — deterministic CCT output at
// any parallelism or shard partition, with wall-clock
// schedule-latency measurements flowing out-of-band into the obs
// manifest's runtime section. Importing this package (or the facade)
// registers the "testbed" runner and the coordinator-latency and
// overload catalog studies.
type (
	// TestbedRunner executes a study's job grid through the real
	// coordinator; it implements StudyRunner and StudyRuntimeReporter.
	TestbedRunner = testbed.Runner
	// TestbedConfig tunes one testbed job execution (admission
	// bucket, boundary cap).
	TestbedConfig = testbed.Config
)

// RunTestbedJob executes one sweep job on the system path: a Manual
// virtual-clock coordinator, one in-process agent per port, arrivals
// admitted at their exact virtual arrival times. Returns the
// deterministic simulator-shaped result plus the out-of-band
// wall-clock runtime record.
func RunTestbedJob(j SweepJob, tc TestbedConfig) (*SimResult, RuntimeRecord, error) {
	return testbed.RunJob(j, tc)
}
