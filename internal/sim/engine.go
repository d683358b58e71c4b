// Package sim is the cluster simulator that replays a CoFlow trace
// under a scheduling policy, mirroring the paper's simulator (§6
// Setup): full bisection bandwidth, congestion only at ports, and a
// global schedule recomputed every δ interval (default 8 ms). Flow
// completions inside an interval are credited at their exact time; the
// freed capacity becomes usable at the next recompute, as in the
// pipelined prototype (§5). The engine also injects cluster dynamics
// (stragglers, restarts after failures) and models pipelined data
// availability, exercising §4.3.
//
// # Entry points
//
// New(Config) builds a reusable Engine; Run is the one-shot form.
// Config.Validate rejects malformed configurations (negative δ,
// out-of-range dynamics fractions) at construction.
//
// # One run loop
//
// The engine is a discrete-event loop (eventloop.go). Trace arrivals
// come from a cursor over the dependency-free specs, ordered once at
// load by (δ boundary, spec index); everything dynamic — the one
// pending schedule epoch, pipelining availability injections,
// completions of CoFlows that gate DAG dependents and the arrivals they
// release — sits in a small deterministic min-heap (events.go) ordered
// by (time, kind priority, key, seq). The loop takes whichever source
// is earlier, so idle stretches cost nothing and an epoch costs its
// live flows. A schedule epoch runs one interval: schedule → audit →
// observe → advance.
//
// # Reference stepper
//
// reference_test.go keeps the discrete-time loop the engine replaced:
// visit every δ boundary while work is active, scan the pending trace
// for releases, refresh pipelined availability, run one interval. It
// shares admitOne/beginInterval/observeInterval/advance with the
// engine, and the differential tests require the two to agree bit for
// bit — same Result (CCT bits, makespan, interval count, utilization
// sums), same telemetry stream, same RNG draws.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// Config controls one simulation run. Zero values take paper defaults.
type Config struct {
	// Delta is the schedule recomputation interval δ (default 8 ms).
	Delta coflow.Time
	// PortRate is per-port line rate (default 1 Gbps).
	PortRate coflow.Rate
	// Horizon aborts runaway simulations (default 30 simulated days).
	Horizon coflow.Time
	// SkipValidation disables the per-interval allocation audit (no
	// port oversubscribed, no rate for done/unavailable flows). The
	// audit is cheap and on by default; benchmarks of raw scheduler
	// speed may turn it off.
	SkipValidation bool
	// Dynamics optionally injects stragglers and flow restarts.
	Dynamics *Dynamics
	// Pipelining optionally delays per-flow data availability.
	Pipelining *Pipelining
	// Probes receive a per-interval telemetry observation, invoked
	// synchronously in order from the run loop. An empty list is free:
	// the no-probe path allocates nothing per interval (enforced by
	// TestObserveIntervalNoProbesZeroAlloc). Probes observe exactly one
	// run — attach fresh instances per simulation.
	Probes []telemetry.Probe
	// Counters, when non-nil, receives engine introspection: epochs,
	// admissions, event dispatches by kind, heap high-water mark,
	// schedule-call latency. Counting is out-of-band — it never touches
	// simulation state, RNG draws, or Result — and both the nil path and
	// the counting path are zero-alloc in steady state (enforced by the
	// allocguard tests). Attach a fresh instance per run; sharing one
	// across runs sums them.
	Counters *obs.EngineCounters
}

// WithProbe returns a copy of c with p appended to a freshly-copied
// probe list. The copy never aliases the receiver's backing array, so
// configurations derived from one shared base (sweep jobs, facade
// helpers) cannot race on a probe slot or leak a probe into a sibling
// run — the copy-safe replacement for the append-with-full-slice
// idiom. The receiver is unchanged.
func (c Config) WithProbe(p telemetry.Probe) Config {
	probes := make([]telemetry.Probe, len(c.Probes), len(c.Probes)+1)
	copy(probes, c.Probes)
	c.Probes = append(probes, p)
	return c
}

func (c Config) withDefaults() Config {
	if c.Delta <= 0 {
		c.Delta = 8 * coflow.Millisecond
	}
	if c.PortRate <= 0 {
		c.PortRate = fabric.DefaultPortRate
	}
	if c.Horizon <= 0 {
		c.Horizon = 30 * 24 * 3600 * coflow.Second
	}
	return c
}

// Dynamics injects the cluster misbehaviour of §4.3: a fraction of
// flows straggle (their achievable rate is divided by Slowdown), and a
// fraction restart from zero once they reach RestartAt progress,
// modelling task re-execution after a node failure.
type Dynamics struct {
	Seed          int64
	StragglerProb float64 // per-flow probability of straggling
	Slowdown      float64 // rate divisor for stragglers (>1)
	RestartProb   float64 // per-flow probability of one mid-life restart
	RestartAt     float64 // progress fraction triggering the restart (0,1)
}

// Pipelining delays data availability: each flow becomes sendable only
// AvailDelay after its CoFlow arrives, for a random Frac of flows,
// modelling upstream compute stages that have not produced data yet.
type Pipelining struct {
	Seed       int64
	Frac       float64
	AvailDelay coflow.Time
}

// FlowResult records one flow's fate.
type FlowResult struct {
	ID     coflow.FlowID
	Size   coflow.Bytes
	FCT    coflow.Time // DoneAt − CoFlow arrival
	DoneAt coflow.Time
}

// CoFlowResult records one CoFlow's fate.
type CoFlowResult struct {
	ID      coflow.CoFlowID
	Arrival coflow.Time
	DoneAt  coflow.Time
	CCT     coflow.Time
	Width   int
	Bytes   coflow.Bytes
	Flows   []FlowResult
}

// ScheduleStats summarizes the coordinator's wall-clock compute cost,
// the quantity Table 2 reports. Samples are held in a fixed-capacity
// reservoir (Vitter's algorithm R with a deterministic xorshift
// stream), so memory stays bounded on arbitrarily long runs while P90
// remains a faithful estimate.
type ScheduleStats struct {
	Calls   int
	Total   time.Duration
	Max     time.Duration
	samples []time.Duration
	rng     uint64
}

// schedSampleCap bounds the P90 sample reservoir.
const schedSampleCap = 2048

// Record accumulates one Schedule call's wall-clock cost. Exported so
// the coordinator runtime (internal/runtime) measures its Table-2
// scheduling latency with the same bounded reservoir the simulator
// uses.
func (s *ScheduleStats) Record(d time.Duration) { s.record(d) }

// record accumulates one Schedule call's wall-clock cost.
func (s *ScheduleStats) record(d time.Duration) {
	s.Calls++
	s.Total += d
	if d > s.Max {
		s.Max = d
	}
	if len(s.samples) < schedSampleCap {
		if cap(s.samples) < schedSampleCap {
			//saath:alloc-ok one-time reservoir preallocation
			s.samples = append(make([]time.Duration, 0, schedSampleCap), s.samples...)
		}
		s.samples = append(s.samples, d)
		return
	}
	// Reservoir replacement. Wall-clock timings are measurement noise
	// already, so a deterministic pseudo-random stream (not seeded from
	// the simulation) is fine and keeps the engine rand-free.
	if s.rng == 0 {
		s.rng = 0x9e3779b97f4a7c15
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if j := s.rng % uint64(s.Calls); j < schedSampleCap {
		s.samples[j] = d
	}
}

// Mean returns the average schedule computation time.
func (s ScheduleStats) Mean() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Calls)
}

// P90 returns the 90th-percentile schedule computation time over the
// retained sample reservoir.
func (s ScheduleStats) P90() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), s.samples...)
	slices.Sort(cp)
	idx := int(0.9 * float64(len(cp)-1))
	return cp[idx]
}

// Result is the outcome of one simulation.
type Result struct {
	Scheduler string
	Trace     string
	Ports     int // cluster size the trace ran on
	CoFlows   []CoFlowResult
	Makespan  coflow.Time
	Intervals int // scheduling rounds executed
	Sched     ScheduleStats

	// AvgEgressUtilization is the mean fraction of total sender-side
	// capacity allocated across busy intervals — how well the policy
	// keeps ports fed (work conservation shows up here).
	AvgEgressUtilization float64
}

// CCTByID indexes completion times for speedup computations.
func (r *Result) CCTByID() map[coflow.CoFlowID]coflow.Time {
	out := make(map[coflow.CoFlowID]coflow.Time, len(r.CoFlows))
	for _, c := range r.CoFlows {
		out[c.ID] = c.CCT
	}
	return out
}

// AvgCCT returns the mean CCT in seconds.
func (r *Result) AvgCCT() float64 {
	if len(r.CoFlows) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.CoFlows {
		sum += c.CCT.Seconds()
	}
	return sum / float64(len(r.CoFlows))
}

// Run replays tr under scheduler s. It is the one-shot convenience form
// of New(cfg) followed by Engine.Run, with the same construction-time
// validation.
func Run(tr *trace.Trace, s sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return run(tr, s, cfg)
}

// run replays tr on a fresh engine. cfg has already passed Validate.
func run(tr *trace.Trace, s sched.Scheduler, cfg Config) (*Result, error) {
	e, err := newEngine(tr, s, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.runEvents(); err != nil {
		return nil, err
	}
	return e.result, nil
}

// newEngine builds the per-run engine state with the trace loaded.
func newEngine(tr *trace.Trace, s sched.Scheduler, cfg Config) (*engine, error) {
	cfg = cfg.withDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:   cfg,
		sched: s,
		fab:   fabric.New(tr.NumPorts, cfg.PortRate),
		space: coflow.NewIndexSpace(),
		result: &Result{
			Scheduler: s.Name(), Trace: tr.Name, Ports: tr.NumPorts,
			CoFlows: make([]CoFlowResult, 0, len(tr.Specs)),
		},
	}
	e.snap.Fabric = e.fab
	if cfg.Dynamics != nil {
		e.dynRng = rand.New(rand.NewSource(cfg.Dynamics.Seed))
	}
	if cfg.Pipelining != nil {
		e.pipeRng = rand.New(rand.NewSource(cfg.Pipelining.Seed))
	}
	e.load(tr)
	return e, nil
}

// pendingSpec is one trace entry on its way to the scheduler.
type pendingSpec struct {
	spec   *coflow.Spec
	queued bool // DAG-gated spec whose arrival event is already scheduled
}

type engine struct {
	cfg    Config
	sched  sched.Scheduler
	fab    *fabric.Fabric
	result *Result

	// space hands out the dense flow/coflow indices that key the
	// allocation vector and every per-flow scratch array.
	space *coflow.IndexSpace

	pending []pendingSpec
	active  []*coflow.CoFlow

	// flowResults is the one slab every CoFlowResult.Flows is carved
	// from, sized at load to the trace's flow count.
	flowResults []FlowResult

	// DAG gates name CoFlows by ID: dependents lists the spec indices
	// gated on each CoFlow's completion, doneAt records when each such
	// gating CoFlow retired. Both stay nil on a trace without
	// dependencies.
	dependents map[coflow.CoFlowID][]int
	doneAt     map[coflow.CoFlowID]coflow.Time

	dynRng  *rand.Rand
	pipeRng *rand.Rand

	utilSum  float64 // accumulated per-interval egress utilization
	admitted int     // CoFlows released to the scheduler so far

	// unavail counts flows currently held back by pipelining.
	unavail int

	// ivScratch is the telemetry observation reused across intervals so
	// the probe path allocates nothing in the engine itself.
	ivScratch telemetry.Interval

	// restartPending marks flows rolled for a one-time mid-life restart,
	// by Flow.Idx; retire clears a CoFlow's slots with its indices.
	restartPending []bool

	// Per-interval scratch state, reused across intervals so the hot
	// loop allocates nothing: the snapshot (whose Alloc vector the
	// scheduler reuses), the sorted-active scratch, and the dense
	// validation ledgers. valFlows maps Flow.Idx to the live flow holding
	// it, maintained at admission and retirement.
	snap        sched.Snapshot
	snapScratch []*coflow.CoFlow
	valFlows    []*coflow.Flow
	valEgress   []float64
	valIngress  []float64

	// Run-loop state: the arrival cursor (indices of dependency-free
	// specs in admission order, and how many have been taken), the event
	// heap, and whether it holds the single pending schedule epoch.
	arrivals     []int32
	cursor       int
	evq          eventQueue
	epochPending bool

	now coflow.Time
}

// load stages the trace: every spec pending, DAG-gated ones indexed by
// the CoFlows they wait on, and room for every flow's result.
func (e *engine) load(tr *trace.Trace) {
	e.pending = make([]pendingSpec, len(tr.Specs))
	flows := 0
	for i, spec := range tr.Specs {
		e.pending[i].spec = spec
		flows += len(spec.Flows)
		if len(spec.DependsOn) > 0 && e.dependents == nil {
			e.dependents = make(map[coflow.CoFlowID][]int)
			e.doneAt = make(map[coflow.CoFlowID]coflow.Time)
		}
		for _, id := range spec.DependsOn {
			e.dependents[id] = append(e.dependents[id], i)
		}
	}
	e.flowResults = make([]FlowResult, 0, flows)
}

// finish stamps the run-level aggregates once the last interval closed.
func (e *engine) finish() {
	e.result.Makespan = e.now
	if e.result.Intervals > 0 {
		e.result.AvgEgressUtilization = e.utilSum / float64(e.result.Intervals)
	}
}

// admitOne releases one spec at the δ boundary now: build the CoFlow,
// charge its arrival, roll dynamics and pipelining, hand it to the
// scheduler. Shared verbatim by the run loop's arrival handler and the
// reference stepper's per-boundary scan, so both replay identical RNG
// streams and scheduler call sequences.
func (e *engine) admitOne(p *pendingSpec, now coflow.Time) *coflow.CoFlow {
	e.admitted++
	if c := e.cfg.Counters; c != nil {
		c.Admitted++
	}
	c := coflow.New(p.spec)
	c.Arrived = now
	if p.spec.Arrival > 0 && len(p.spec.DependsOn) == 0 {
		// Standalone CoFlows are charged from their trace arrival,
		// even though the coordinator only sees them at the next δ
		// boundary — the CCT clock starts when the first flow
		// arrives (§2.1).
		c.Arrived = p.spec.Arrival
	}
	e.space.Assign(c)
	// The Flow.Idx-keyed tables grow together, before anything reads them.
	for len(e.valFlows) < e.space.FlowCap() {
		e.valFlows = append(e.valFlows, nil)
		e.restartPending = append(e.restartPending, false)
	}
	for _, f := range c.Flows {
		e.valFlows[f.Idx] = f
	}
	e.applyDynamicsOnArrival(c)
	e.applyPipelining(c)
	e.active = append(e.active, c)
	e.sched.Arrive(c, now)
	return c
}

func (e *engine) applyDynamicsOnArrival(c *coflow.CoFlow) {
	d := e.cfg.Dynamics
	if d == nil {
		return
	}
	for _, f := range c.Flows {
		if d.StragglerProb > 0 && e.dynRng.Float64() < d.StragglerProb {
			slow := d.Slowdown
			if slow <= 1 {
				slow = 2
			}
			f.Slowdown = slow
		}
		if d.RestartProb > 0 && e.dynRng.Float64() < d.RestartProb {
			e.restartPending[f.Idx] = true
		}
	}
}

func (e *engine) applyPipelining(c *coflow.CoFlow) {
	p := e.cfg.Pipelining
	if p == nil {
		return
	}
	changed := false
	for _, f := range c.Flows {
		if e.pipeRng.Float64() < p.Frac {
			f.Available = false
			e.unavail++
			changed = true
		}
	}
	if changed {
		c.Invalidate()
	}
}

var errHorizon = errors.New("sim: horizon exceeded (scheduler livelock or trace too long)")

// beginInterval opens the scheduling interval at e.now: snapshot the
// active set, compute the schedule, audit it. observeInterval then
// advance complete the interval.
func (e *engine) beginInterval() (*sched.RateVec, error) {
	e.fab.Reset()
	e.snap.Now = e.now
	e.snap.Active = e.activeSorted()
	e.snap.FlowCap = e.space.FlowCap()
	e.snap.CoFlowCap = e.space.CoFlowCap()
	start := time.Now() //saath:wallclock schedule-latency measurement, out-of-band counters only
	alloc := e.sched.Schedule(&e.snap)
	elapsed := time.Since(start) //saath:wallclock
	e.result.Sched.record(elapsed)
	e.result.Intervals++
	if c := e.cfg.Counters; c != nil {
		c.Epochs++
		c.Schedule.Observe(elapsed)
	}

	if !e.cfg.SkipValidation {
		if err := e.validateAllocation(alloc); err != nil {
			return nil, err
		}
	}
	return alloc, nil
}

// observeInterval is the engine's single per-interval emission path:
// it accumulates the egress-utilization mean that Result reports and,
// when probes are attached, hands them the full interval observation.
// Rates are summed in deterministic flow order — float addition is not
// associative, and ranging over the allocation's insertion order would
// let a policy's visiting order perturb the low bits of the reported
// utilization. Only sendable flows can hold a rate (the audit rejects
// anything else), so they are the only ones visited. With no probes
// attached this path allocates nothing.
func (e *engine) observeInterval(alloc *sched.RateVec) {
	var total float64
	for _, c := range e.active {
		for _, f := range c.SendableFlows() {
			if r, ok := alloc.Get(f.Idx); ok {
				total += float64(r)
			}
		}
	}
	capTotal := float64(e.cfg.PortRate) * float64(e.fab.NumPorts())
	if capTotal > 0 {
		e.utilSum += total / capTotal
	}
	if len(e.cfg.Probes) == 0 {
		return
	}
	iv := &e.ivScratch
	*iv = telemetry.Interval{
		Index:         e.result.Intervals - 1,
		Now:           e.now,
		Delta:         e.cfg.Delta,
		NumPorts:      e.fab.NumPorts(),
		PortRate:      e.cfg.PortRate,
		Active:        e.snapScratch, // this interval's sorted snapshot
		Alloc:         alloc,
		AllocatedRate: total,
		Admitted:      e.admitted,
		Completed:     len(e.result.CoFlows),
	}
	for _, p := range e.cfg.Probes {
		p.Observe(iv)
	}
}

// validateAllocation audits one interval's schedule: every rate maps
// to a live sendable flow, rates are non-negative, and no port's
// ingress or egress is oversubscribed beyond float tolerance. This is
// the engine's guard against scheduler bugs — policies that bypass the
// fabric ledger are caught here. The ledgers are dense arrays keyed by
// port, reused across intervals; the flow-by-index table is kept
// current by admitOne and retire, so an index no live flow holds
// reads nil here.
func (e *engine) validateAllocation(alloc *sched.RateVec) error {
	np := e.fab.NumPorts()
	if len(e.valEgress) < np {
		//saath:alloc-ok amortized ledger growth, skipped at steady state
		e.valEgress = make([]float64, np)
		e.valIngress = make([]float64, np) //saath:alloc-ok
	}
	egress, ingress := e.valEgress[:np], e.valIngress[:np]
	for i := range egress {
		egress[i], ingress[i] = 0, 0
	}
	return e.validateFilled(alloc, e.valFlows, egress, ingress)
}

func (e *engine) validateFilled(alloc *sched.RateVec, flows []*coflow.Flow, egress, ingress []float64) error {
	var err error
	alloc.Range(func(idx int, r coflow.Rate) bool {
		if idx >= len(flows) || flows[idx] == nil {
			err = fmt.Errorf("sim: schedule names unknown flow index %d", idx)
			return false
		}
		f := flows[idx]
		if r < 0 {
			err = fmt.Errorf("sim: negative rate %v for flow %v", r, f.ID)
			return false
		}
		if r > 0 && !f.Sendable() {
			err = fmt.Errorf("sim: rate %v for non-sendable flow %v", r, f.ID)
			return false
		}
		egress[f.Src] += float64(r)
		ingress[f.Dst] += float64(r)
		return true
	})
	if err != nil {
		return err
	}
	limit := float64(e.cfg.PortRate) * 1.0001
	for p := range egress {
		if egress[p] > limit {
			return fmt.Errorf("sim: egress port %d oversubscribed: %.0f > %.0f B/s", p, egress[p], float64(e.cfg.PortRate))
		}
		if ingress[p] > limit {
			return fmt.Errorf("sim: ingress port %d oversubscribed: %.0f > %.0f B/s", p, ingress[p], float64(e.cfg.PortRate))
		}
	}
	return nil
}

// activeSorted snapshots the active set in arrival order for the
// scheduler, reusing one scratch slice across intervals.
func (e *engine) activeSorted() []*coflow.CoFlow {
	e.snapScratch = append(e.snapScratch[:0], e.active...)
	sched.ByArrival(e.snapScratch)
	return e.snapScratch
}

// advance moves bytes for one interval and retires finished coflows.
// Survivors are compacted into the active slice in place (writes trail
// reads), so steady-state epochs reuse its backing array. CoFlows whose
// sendable set changed (a flow completed) have their derived-state
// caches invalidated.
func (e *engine) advance(alloc *sched.RateVec, dt coflow.Time) {
	still := e.active[:0]
	for _, c := range e.active {
		completed := false
		for _, f := range c.SendableFlows() {
			rate, ok := alloc.Get(f.Idx)
			if !ok || rate <= 0 {
				continue
			}
			eff := f.EffectiveRate(rate, e.cfg.PortRate)
			moved := eff.Transfer(dt)
			rem := f.Remaining()
			if moved >= rem {
				f.Sent = f.Size
				f.Done = true
				f.DoneAt = e.now + eff.TimeToSend(rem)
				if f.DoneAt > e.now+dt {
					f.DoneAt = e.now + dt
				}
				completed = true
			} else {
				f.Sent += moved
				e.maybeRestart(f)
			}
		}
		if completed {
			c.Invalidate()
		}
		if c.RefreshDone() {
			e.retire(c)
		} else {
			still = append(still, c)
		}
	}
	e.active = still
}

// maybeRestart applies a rolled one-time failure: the flow loses all
// progress once it crosses the RestartAt fraction.
func (e *engine) maybeRestart(f *coflow.Flow) {
	d := e.cfg.Dynamics
	if d == nil || !e.restartPending[f.Idx] {
		return
	}
	at := d.RestartAt
	if at <= 0 || at >= 1 {
		at = 0.5
	}
	if float64(f.Sent) >= at*float64(f.Size) {
		f.Sent = 0
		f.Restarted = true
		e.restartPending[f.Idx] = false
	}
}

func (e *engine) retire(c *coflow.CoFlow) {
	if cnt := e.cfg.Counters; cnt != nil {
		cnt.Retired++
	}
	// A coflow gating DAG dependents records its completion and gets an
	// exact-time completion event. DoneAt lies in [now, now+δ], so the
	// event pops once this interval finishes, before the boundary that
	// should admit the dependents (releaseDependents clamps to the
	// post-interval clock).
	if len(e.dependents[c.ID()]) > 0 { //saath:alloc-ok once per CoFlow at retirement; DAG gates name CoFlows not yet admitted, so by ID
		e.doneAt[c.ID()] = c.DoneAt //saath:alloc-ok as above
		e.pushEvent(event{time: c.DoneAt, kind: eventFlowDone, co: c})
	}
	e.sched.Depart(c, e.now)
	for _, f := range c.Flows {
		e.valFlows[f.Idx] = nil
		e.restartPending[f.Idx] = false
	}
	e.space.Release(c) // after Depart, which still reads the indices
	res := CoFlowResult{
		ID:      c.ID(),
		Arrival: c.Arrived,
		DoneAt:  c.DoneAt,
		CCT:     c.CCT(),
		Width:   c.Width(),
		Bytes:   c.Spec.TotalSize(),
	}
	first := len(e.flowResults)
	for _, f := range c.Flows {
		e.flowResults = append(e.flowResults, FlowResult{
			ID:     f.ID,
			Size:   f.Size,
			FCT:    f.DoneAt - c.Arrived,
			DoneAt: f.DoneAt,
		})
	}
	res.Flows = e.flowResults[first:len(e.flowResults):len(e.flowResults)]
	e.result.CoFlows = append(e.result.CoFlows, res)
}
