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
// out-of-range dynamics fractions) at construction. Config.Mode
// selects between two run loops that produce byte-identical results:
//
//   - ModeTick (default): the reference discrete-time loop. While any
//     CoFlow is active it visits every δ boundary, scanning the pending
//     trace for releases, refreshing pipelined availability, then
//     running one scheduling interval (schedule → audit → observe →
//     advance). Idle gaps are skipped in one jump.
//
//   - ModeEvent: a discrete-event loop over a deterministic min-heap of
//     typed events — trace arrivals, exact-time flow completions that
//     release DAG dependents, pipelining availability injections,
//     schedule epochs, probe emissions — ordered by (time, kind
//     priority, key, seq). Idle stretches and the per-boundary
//     pending-trace scans cost nothing, which is the whole win on
//     sparse long-tail traces.
//
// # Equivalence contract
//
// The two modes are bit-for-bit equivalent, not approximately so: same
// Result (CCT bits, makespan, interval count, utilization sums), same
// telemetry stream, same RNG draws. The event engine earns this by
// running schedule epochs at exactly the tick engine's δ boundaries
// through the same beginInterval/observeInterval/advance code path,
// admitting simultaneous arrivals in trace order (the heap key is the
// spec index), and releasing DAG dependents at the same boundary the
// tick engine's pending scan would. Event mode changes how fast a
// simulation runs, never what it computes — pinned by the golden
// equivalence tests and the cross-mode study goldens.
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
	// Mode selects the run loop: ModeTick (the default) or ModeEvent.
	// Both modes produce byte-identical results — see the package doc's
	// equivalence contract.
	Mode Mode
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
	// ticks, admissions, event dispatches by kind, heap high-water mark,
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

// Run replays tr under scheduler s in cfg's engine mode. It is the
// one-shot convenience form of New(cfg) followed by Engine.Run, with
// the same construction-time validation.
func Run(tr *trace.Trace, s sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return run(tr, s, cfg)
}

// run builds the per-run engine state and dispatches on Mode. cfg has
// already passed Validate.
func run(tr *trace.Trace, s sched.Scheduler, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:    cfg,
		sched:  s,
		fab:    fabric.New(tr.NumPorts, cfg.PortRate),
		space:  coflow.NewIndexSpace(),
		result: &Result{Scheduler: s.Name(), Trace: tr.Name, Ports: tr.NumPorts},
	}
	if c := cfg.Counters; c != nil {
		c.Mode = cfg.Mode.String()
	}
	e.snap.Fabric = e.fab
	if cfg.Dynamics != nil {
		e.dynRng = rand.New(rand.NewSource(cfg.Dynamics.Seed))
	}
	if cfg.Pipelining != nil {
		e.pipeRng = rand.New(rand.NewSource(cfg.Pipelining.Seed))
	}
	e.load(tr)
	var err error
	if cfg.Mode == ModeEvent {
		err = e.runEvents()
	} else {
		err = e.runTicks()
	}
	if err != nil {
		return nil, err
	}
	return e.result, nil
}

// pendingSpec is a trace entry not yet released to the scheduler.
type pendingSpec struct {
	spec     *coflow.Spec
	deps     map[coflow.CoFlowID]bool // unfinished dependencies
	released bool
	queued   bool // event mode: arrival event already scheduled
}

type engine struct {
	cfg    Config
	sched  sched.Scheduler
	fab    *fabric.Fabric
	result *Result

	// space hands out the dense flow/coflow indices that key the
	// allocation vector and every per-flow scratch array.
	space *coflow.IndexSpace

	pending []*pendingSpec
	active  []*coflow.CoFlow
	doneAt  map[coflow.CoFlowID]coflow.Time

	dynRng  *rand.Rand
	pipeRng *rand.Rand

	utilSum  float64 // accumulated per-interval egress utilization
	admitted int     // CoFlows released to the scheduler so far

	// unavail counts flows currently held back by pipelining;
	// refreshAvailability skips its scan entirely while it is zero.
	unavail int

	// ivScratch is the telemetry observation reused across intervals so
	// the probe path allocates nothing in the engine itself.
	ivScratch telemetry.Interval

	// restartPending marks flows rolled for a one-time mid-life restart,
	// by Flow.Idx; retire clears a CoFlow's slots with its indices.
	restartPending []bool

	// Per-interval scratch state, reused across ticks so the hot loop
	// allocates nothing: the snapshot (whose Alloc vector the scheduler
	// reuses), the sorted-active scratch, and the dense validation
	// ledgers. valFlows maps Flow.Idx to the live flow holding it,
	// maintained at admission and retirement.
	snap        sched.Snapshot
	snapScratch []*coflow.CoFlow
	valFlows    []*coflow.Flow
	valEgress   []float64
	valIngress  []float64

	// Event-mode state (nil/unused in tick mode): the deterministic
	// event heap, the timestamp of the single pending schedule epoch
	// (-1 when none), the spec indices gated on each CoFlow's
	// completion, and the schedule handed from an epoch event to its
	// same-timestamp probe event.
	evq          *eventQueue
	epochAt      coflow.Time
	dependents   map[coflow.CoFlowID][]int
	pendingAlloc *sched.RateVec

	now coflow.Time
}

func (e *engine) load(tr *trace.Trace) {
	e.doneAt = make(map[coflow.CoFlowID]coflow.Time)
	for _, spec := range tr.Specs {
		p := &pendingSpec{spec: spec}
		if len(spec.DependsOn) > 0 {
			p.deps = make(map[coflow.CoFlowID]bool, len(spec.DependsOn))
			for _, id := range spec.DependsOn {
				p.deps[id] = true
			}
		}
		e.pending = append(e.pending, p)
	}
}

// releasable reports whether the spec may enter the cluster now.
func (e *engine) releasable(p *pendingSpec, now coflow.Time) bool {
	if p.released || p.spec.Arrival > now {
		return false
	}
	//saath:order-independent all-deps-done conjunction; any visit order yields the same bool
	for id := range p.deps {
		if _, done := e.doneAt[id]; !done {
			return false
		}
	}
	return true
}

// admit releases every spec whose arrival time and dependencies allow.
func (e *engine) admit(now coflow.Time) {
	for _, p := range e.pending {
		if !e.releasable(p, now) {
			continue
		}
		e.admitOne(p, now)
	}
}

// admitOne releases one spec at the δ boundary now: build the CoFlow,
// charge its arrival, roll dynamics and pipelining, hand it to the
// scheduler. Shared verbatim by the tick engine's per-boundary scan
// and the event engine's arrival handler, so both modes replay
// identical RNG streams and scheduler call sequences.
func (e *engine) admitOne(p *pendingSpec, now coflow.Time) *coflow.CoFlow {
	p.released = true
	e.admitted++
	if c := e.cfg.Counters; c != nil {
		c.Admitted++
	}
	c := coflow.New(p.spec)
	c.Arrived = now
	if p.spec.Arrival > 0 && len(p.deps) == 0 {
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

// refreshAvailability releases pipelined flows whose delay elapsed.
// The outstanding-unavailable counter lets the common case — every
// flow already released — skip the scan entirely instead of walking
// every flow of every active CoFlow each interval.
func (e *engine) refreshAvailability(now coflow.Time) {
	p := e.cfg.Pipelining
	if p == nil || e.unavail == 0 {
		return
	}
	for _, c := range e.active {
		changed := false
		for _, f := range c.Flows {
			if !f.Available && now >= c.Arrived+p.AvailDelay {
				f.Available = true
				e.unavail--
				changed = true
			}
		}
		if changed {
			c.Invalidate()
		}
	}
}

// nextArrival returns the earliest pending release time, or -1.
func (e *engine) nextArrival() coflow.Time {
	next := coflow.Time(-1)
	for _, p := range e.pending {
		if p.released {
			continue
		}
		t := p.spec.Arrival
		if len(p.deps) > 0 {
			ready := true
			var depDone coflow.Time
			//saath:order-independent max over dep completion times; early not-done exit yields the same bool
			for id := range p.deps {
				dt, done := e.doneAt[id]
				if !done {
					ready = false
					break
				}
				if dt > depDone {
					depDone = dt
				}
			}
			if !ready {
				continue // will be triggered by a completion, not time
			}
			if depDone > t {
				t = depDone
			}
		}
		if next < 0 || t < next {
			next = t
		}
	}
	return next
}

var errHorizon = errors.New("sim: horizon exceeded (scheduler livelock or trace too long)")

// runTicks is the reference discrete-time loop (ModeTick): visit every
// δ boundary while work is active, jumping idle gaps in one step.
func (e *engine) runTicks() error {
	delta := e.cfg.Delta
	for {
		// Jump over idle gaps to the next δ boundary at or after the
		// next release.
		if len(e.active) == 0 {
			na := e.nextArrival()
			if na < 0 {
				if n := e.unreleasedCount(); n > 0 {
					return fmt.Errorf("sim: %d coflows unreachable (dependency cycle?)", n)
				}
				break // drained
			}
			if na > e.now {
				steps := (na - e.now + delta - 1) / delta
				e.now += steps * delta
			}
		}
		if e.now > e.cfg.Horizon {
			return fmt.Errorf("%w at %v", errHorizon, e.now)
		}
		e.admit(e.now)
		e.refreshAvailability(e.now)
		if len(e.active) == 0 {
			continue // the top of the loop re-evaluates releases
		}
		if err := e.tick(delta); err != nil {
			return err
		}
		e.now += delta
	}
	e.result.Makespan = e.now
	if e.result.Intervals > 0 {
		e.result.AvgEgressUtilization = e.utilSum / float64(e.result.Intervals)
	}
	return nil
}

// tick runs one scheduling interval [now, now+δ): compute the
// schedule, audit it, emit telemetry, move bytes. All state it touches
// is engine-owned scratch; a steady-state tick (no arrivals, no
// completions, no probes) performs zero heap allocations — guarded by
// TestEngineTickSteadyStateZeroAlloc.
//
//saath:hotpath
func (e *engine) tick(delta coflow.Time) error {
	if c := e.cfg.Counters; c != nil {
		c.Ticks++
	}
	alloc, err := e.beginInterval()
	if err != nil {
		return err
	}
	e.observeInterval(alloc)
	e.advance(alloc, delta)
	return nil
}

// beginInterval opens the scheduling interval at e.now: snapshot the
// active set, compute the schedule, audit it. The remainder of the
// interval — observeInterval then advance — is split out so the event
// engine can interpose its probe event between scheduling and
// emission while both modes share the exact same code path.
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

func (e *engine) unreleasedCount() int {
	n := 0
	for _, p := range e.pending {
		if !p.released {
			n++
		}
	}
	return n
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
// reads), so steady-state ticks reuse its backing array. CoFlows whose
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
	e.doneAt[c.ID()] = c.DoneAt //saath:alloc-ok once per CoFlow at retirement; DAG gates name CoFlows not yet admitted, so by ID
	if cnt := e.cfg.Counters; cnt != nil {
		cnt.Retired++
	}
	// Event mode: coflows gating DAG dependents get an exact-time
	// completion event so releases never need the tick engine's
	// per-boundary pending scan. DoneAt lies in [now, now+δ], so the
	// event pops once this interval finishes, before the boundary that
	// should admit the dependents (releaseDependents clamps to the
	// post-interval clock).
	if e.evq != nil && len(e.dependents[c.ID()]) > 0 { //saath:alloc-ok as doneAt above
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
	for _, f := range c.Flows {
		res.Flows = append(res.Flows, FlowResult{
			ID:     f.ID,
			Size:   f.Size,
			FCT:    f.DoneAt - c.Arrived,
			DoneAt: f.DoneAt,
		})
	}
	e.result.CoFlows = append(e.result.CoFlows, res)
}
