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
// # Entry point
//
// Workspace.Run replays one trace under one scheduler, on the storage
// earlier runs on the same Workspace left; Run does it on a fresh one.
// Either first calls Config.Validate, which rejects malformed
// configurations (negative δ, out-of-range dynamics fractions).
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
// # An epoch costs the flows holding a rate
//
// The audit, the utilisation sum and the byte advance follow the
// allocation, not the live set: a loaded cluster under all-or-none
// (Saath) or strict queue priority (Aalo) serves a few percent of its
// pending flows per interval. The audit clears and checks only the ports
// a rate touched. For observe and advance, planInterval looks at the
// rated share the allocation shows: at or under one sendable flow in
// four it builds the rated list — the sendable flows holding a rate, put
// in the order the utilisation sum has always been added in (e.active
// order, then flow index; the sum is a float and goldens pin its low
// bits) by a counting pass, no comparison sort — and both passes run
// over that; above it (max-min fairness rates everything) ordering the
// list costs more than it saves and both walk the sendable flows,
// asking the allocation for each one's rate, as every epoch did before.
// The choice is made per epoch from what the engine observes; nothing
// configures it. TestRateDrivenIntervalMatchesDenseWalk holds the two
// sides bit-identical, and obs.EngineCounters.FlowsWalked/RatedFlows
// make the property countable (the root TestEpochCostsRatedFlows).
//
// # A quiet epoch keeps its plan
//
// Saath and Aalo hand out the vector they returned last time, untouched,
// when a boundary gives them nothing new to decide from. beginInterval
// recognises that by the vector's pointer and content stamp
// (sched.RateVec.ContentStamp), and if the live set stands too — no
// CoFlow admitted or retired, the sum of the live ones' mutation epochs
// where it was — the audit would pass again and planInterval would
// choose and build what it did, so the verdict, the flow pass and the
// rated list are kept (heldPlan; obs.EngineCounters.HeldEpochs counts
// these). The boundary still happens: the policy is called, telemetry
// observes, bytes move. Every byte the engine moves or takes back notes
// the owner's progress (moveBytes), which is what lets the policies hold
// a queue. TestHeldIntervalMatchesFull holds all of it to a twin under a
// policy that never holds.
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
	"cmp"
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

// FlowResult records one flow's fate. Row j of a CoFlowResult's Flows
// is the flow with ID coflow.FlowID{CoFlow: c.ID, Index: j}, and its
// FCT is DoneAt − c.Arrival; neither is stored.
type FlowResult struct {
	Size   coflow.Bytes
	DoneAt coflow.Time
}

// CoFlowResult records one CoFlow's fate. Flows lists its flows in the
// spec's flow order, so a row's position is the flow's index.
type CoFlowResult struct {
	ID      coflow.CoFlowID
	Arrival coflow.Time
	DoneAt  coflow.Time
	CCT     coflow.Time
	Width   int
	Bytes   coflow.Bytes
	Flows   []FlowResult
}

// Result is the outcome of one simulation.
type Result struct {
	Scheduler string
	Trace     string
	Ports     int // cluster size the trace ran on
	CoFlows   []CoFlowResult
	Makespan  coflow.Time
	Intervals int // scheduling rounds executed

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

// Run replays tr under scheduler s, once cfg passes Validate, on a
// fresh Workspace. It only reads tr — the engine copies each spec's
// flows into the CoFlows it runs — so tr may be replayed again.
func Run(tr *trace.Trace, s sched.Scheduler, cfg Config) (*Result, error) {
	return new(Workspace).Run(tr, s, cfg)
}

// newEngine builds the per-run engine state with the trace loaded, on
// the storage w holds. The engine takes that storage and leaves w empty
// until the run hands it back, so a run that never does leaves nothing
// of itself in w.
func (w *Workspace) newEngine(tr *trace.Trace, s sched.Scheduler, cfg Config) (*engine, error) {
	cfg = cfg.withDefaults()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		Workspace: *w,
		cfg:       cfg,
		sched:     s,
		fab:       fabric.New(tr.NumPorts, cfg.PortRate),
		result: &Result{
			Scheduler: s.Name(), Trace: tr.Name, Ports: tr.NumPorts,
			CoFlows: make([]CoFlowResult, 0, len(tr.Specs)),
		},
	}
	*w = Workspace{}
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

// engine is one run's state. Its storage is the Workspace it embeds,
// taken for the run; the rest is the run's own.
type engine struct {
	Workspace

	cfg    Config
	sched  sched.Scheduler
	fab    *fabric.Fabric
	result *Result

	pending []pendingSpec

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

	// rateDriven says whether the plan in force — this interval's, or the
	// earlier one beginInterval kept for it — runs over the rated list.
	rateDriven bool

	// plan is what beginInterval last worked out from an allocation, and
	// what it worked it out from; see heldPlan.
	plan intervalPlan

	// Run-loop state: the arrival cursor (indices of dependency-free
	// specs in admission order, and how many have been taken), and
	// whether the event heap holds the single pending schedule epoch.
	arrivals     []int32
	cursor       int
	epochPending bool

	now coflow.Time
}

// intervalPlan is the outcome of one interval's audit and planInterval —
// the audit passed, e.rateDriven and e.rated are as chosen and built —
// under the key it was worked out from.
type intervalPlan struct {
	key    planKey
	walked int // flows each of the two passes visits
}

// planKey is everything the audit and planInterval read: the allocation
// (its vector and content stamp), and which flows are live and sendable
// (CoFlows admitted and retired so far, and the sum of the live ones'
// mutation epochs, which only grow).
type planKey struct {
	alloc             *sched.RateVec
	content           uint64
	admitted, retired int
	epochs            uint64
}

// flowSlot is one Flow.Idx's entry in the engine's flow table.
type flowSlot struct {
	f     *coflow.Flow
	owner *coflow.CoFlow
}

// ratedFlow is one sendable flow the interval's allocation names.
type ratedFlow struct {
	flowSlot
	rate coflow.Rate
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
	c := e.spares.New(p.spec)
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
	e.valFlows = coflow.Grow(e.valFlows, e.space.FlowCap())
	e.restartPending = coflow.Grow(e.restartPending, e.space.FlowCap())
	for _, f := range c.Flows {
		e.valFlows[f.Idx] = flowSlot{f: f, owner: c}
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
	for _, f := range c.Flows {
		if e.pipeRng.Float64() < p.Frac {
			c.SetAvailable(f, false)
			e.unavail++
		}
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
	// The clock is read only for attached counters: their LatencyHist is
	// the engine's one schedule-latency recorder, and a Result holds no
	// wall-clock.
	c := e.cfg.Counters
	var start time.Time
	if c != nil {
		start = time.Now() // schedule-latency measurement, out-of-band counters only
	}
	alloc := e.sched.Schedule(&e.snap)
	if c != nil {
		c.Epochs++
		c.Schedule.Observe(time.Since(start))
	}
	e.result.Intervals++

	if e.heldPlan(alloc) {
		if c != nil {
			c.HeldEpochs++
		}
	} else {
		if !e.cfg.SkipValidation {
			if err := e.validateAllocation(alloc); err != nil {
				return nil, fmt.Errorf("sim: interval %d (t=%.3fs, %s): %w", e.result.Intervals-1, e.now.Seconds(), e.sched.Name(), err)
			}
		}
		e.planInterval(alloc)
	}
	if c != nil {
		c.RatedFlows += int64(alloc.Len())
		c.FlowsWalked += 2 * int64(e.plan.walked) // once to observe, once to advance
	}
	return alloc, nil
}

// heldPlan reports whether the previous interval's plan stands for
// alloc: a policy that found nothing changed hands out the vector it
// handed out last time, untouched (Saath and Aalo do, most boundaries),
// and if no CoFlow arrived, retired or changed its sendable set either,
// the audit would pass again and planInterval would choose and build
// what it did — so both are kept. Otherwise it notes what the coming plan
// is made from.
func (e *engine) heldPlan(alloc *sched.RateVec) bool {
	key := planKey{
		alloc: alloc, content: alloc.ContentStamp(),
		admitted: e.admitted, retired: len(e.result.CoFlows),
	}
	for _, c := range e.active {
		key.epochs += c.CacheEpoch()
	}
	if alloc != nil && key == e.plan.key {
		return true
	}
	e.plan.key = key
	return false
}

// ratedShare is the density choice between the interval's two flow
// passes: when at most one sendable flow in ratedShare holds a rate —
// Saath's all-or-none and Aalo's queues park most of a loaded cluster —
// observeInterval and advance run over the rated list and cost the
// flows that are served; above it (max-min fairness rates every
// sendable flow) ordering that list costs more than it saves, and both
// walk the sendable flows checking each for a rate.
const ratedShare = 4

// planInterval picks the interval's flow pass from the rated share the
// allocation shows and, on the rate-driven side, builds the rated list.
func (e *engine) planInterval(alloc *sched.RateVec) {
	sendable := 0
	for _, c := range e.active {
		sendable += len(c.SendableFlows())
	}
	e.rateDriven = alloc.Len()*ratedShare <= sendable
	walked := sendable
	if e.rateDriven {
		e.buildRated(alloc)
		walked = len(e.rated)
	}
	e.plan.walked = walked
}

// buildRated lists the sendable flows the allocation names in
// observeInterval's summation order — e.active order, then FlowID.Index
// — in time linear in the allocation and the active set: count each
// CoFlow's rated flows, turn the counts into run offsets in e.active
// order, place. Policies rate a CoFlow's flows in Flows order, so a run
// comes out ascending as placed; one that does not is sorted.
func (e *engine) buildRated(alloc *sched.RateVec) {
	e.ratedRun = coflow.Grow(e.ratedRun, e.space.CoFlowCap())
	raw, run := e.ratedRaw[:0], e.ratedRun
	alloc.Range(func(idx int, r coflow.Rate) bool {
		if idx >= len(e.valFlows) {
			return true
		}
		// Only sendable flows of live CoFlows take part in an interval;
		// with the audit skipped the allocation may name others.
		if s := e.valFlows[idx]; s.f != nil && s.f.Sendable() {
			raw = append(raw, ratedFlow{flowSlot: s, rate: r})
			run[s.owner.Idx]++
		}
		return true
	})
	e.ratedRaw = raw
	e.rated = append(e.rated[:0], raw...) // sized; every entry is placed below
	rated := e.rated

	next := int32(0)
	for _, c := range e.active {
		if n := run[c.Idx]; n > 0 {
			run[c.Idx] = next
			next += n
		}
	}
	for _, r := range raw {
		rated[run[r.owner.Idx]] = r
		run[r.owner.Idx]++
	}
	ascending := true
	for i := range rated {
		run[rated[i].owner.Idx] = 0
		if i > 0 && rated[i].owner == rated[i-1].owner && rated[i].f.Index() < rated[i-1].f.Index() {
			ascending = false
		}
	}
	if ascending {
		return
	}
	for lo := 0; lo < len(rated); {
		hi := lo + 1
		for hi < len(rated) && rated[hi].owner == rated[lo].owner {
			hi++
		}
		slices.SortFunc(rated[lo:hi], func(a, b ratedFlow) int {
			return cmp.Compare(a.f.Index(), b.f.Index())
		})
		lo = hi
	}
}

// observeInterval is the engine's single per-interval emission path:
// it accumulates the egress-utilization mean that Result reports and,
// when probes are attached, hands them the full interval observation.
// Rates are summed in deterministic flow order — float addition is not
// associative, and ranging over the allocation's insertion order would
// let a policy's visiting order perturb the low bits of the reported
// utilization. Only sendable flows can hold a rate (the audit rejects
// anything else), so they are the only ones visited: off the rated
// list, which is in this order, when beginInterval built one. With no
// probes attached this path allocates nothing.
func (e *engine) observeInterval(alloc *sched.RateVec) {
	var total float64
	if e.rateDriven {
		for i := range e.rated {
			total += float64(e.rated[i].rate)
		}
	} else {
		total = e.sumRatesDense(alloc)
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

// sumRatesDense adds the interval's rates by walking every sendable
// flow of the active set, in (e.active, Flows) order.
func (e *engine) sumRatesDense(alloc *sched.RateVec) float64 {
	var total float64
	for _, c := range e.active {
		for _, f := range c.SendableFlows() {
			if r, ok := alloc.Get(f.Idx); ok {
				total += float64(r)
			}
		}
	}
	return total
}

// validateAllocation audits one interval's schedule (beginInterval names
// the interval in the error it returns): every rate maps
// to a live sendable flow, rates are non-negative, and no port's
// ingress or egress is oversubscribed beyond float tolerance. This is
// the engine's guard against scheduler bugs — policies that bypass the
// fabric ledger are caught here. The ledgers are dense arrays keyed by
// port, reused across intervals and zero outside valPorts — the ports
// a rate touched — so an audit costs the allocation, not the cluster;
// the flow-by-index table is kept current by admitOne and retire, so an
// index no live flow holds reads an empty slot here.
func (e *engine) validateAllocation(alloc *sched.RateVec) error {
	np := e.fab.NumPorts()
	if len(e.valEgress) < np {
		// amortized ledger growth, skipped at steady state
		e.valEgress = make([]float64, np)
		e.valIngress = make([]float64, np)
	}
	egress, ingress := e.valEgress[:np], e.valIngress[:np]
	for _, p := range e.valPorts {
		egress[p], ingress[p] = 0, 0
	}
	ports := e.valPorts[:0]
	var err error
	alloc.Range(func(idx int, r coflow.Rate) bool {
		if idx >= len(e.valFlows) || e.valFlows[idx].f == nil {
			err = fmt.Errorf("schedule names unknown flow index %d", idx)
			return false
		}
		f, owner := e.valFlows[idx].f, e.valFlows[idx].owner
		if r < 0 {
			err = fmt.Errorf("negative rate %v for flow %v", r, owner.FlowID(f))
			return false
		}
		if r == 0 {
			return true
		}
		if !f.Sendable() {
			err = fmt.Errorf("rate %v for non-sendable flow %v", r, owner.FlowID(f))
			return false
		}
		// A ledger only grows, so a port enters the list once: when the
		// first of its two ledgers leaves zero.
		if egress[f.Src] == 0 && ingress[f.Src] == 0 {
			ports = append(ports, f.Src)
		}
		egress[f.Src] += float64(r)
		if egress[f.Dst] == 0 && ingress[f.Dst] == 0 {
			ports = append(ports, f.Dst)
		}
		ingress[f.Dst] += float64(r)
		return true
	})
	e.valPorts = ports
	if err != nil {
		return err
	}
	// The lowest oversubscribed port is the one reported, egress first.
	limit := float64(e.cfg.PortRate) * 1.0001
	worst := coflow.PortID(-1)
	for _, p := range ports {
		if (egress[p] > limit || ingress[p] > limit) && (worst < 0 || p < worst) {
			worst = p
		}
	}
	switch {
	case worst < 0:
		return nil
	case egress[worst] > limit:
		return fmt.Errorf("egress port %d oversubscribed: %.0f > %.0f B/s", worst, egress[worst], float64(e.cfg.PortRate))
	default:
		return fmt.Errorf("ingress port %d oversubscribed: %.0f > %.0f B/s", worst, ingress[worst], float64(e.cfg.PortRate))
	}
}

// activeSorted snapshots the active set in arrival order for the
// scheduler, reusing one scratch slice across intervals. Admissions
// keep the active set in that order unless a DAG release or a trace not
// sorted by (arrival, ID) puts a CoFlow ahead of an earlier one, and a
// stable sort leaves a sorted slice as it is, so the sort runs only when
// the check finds the slice out of order.
func (e *engine) activeSorted() []*coflow.CoFlow {
	e.snapScratch = append(e.snapScratch[:0], e.active...)
	if !slices.IsSortedFunc(e.snapScratch, sched.ArrivalOrder) {
		sched.ByArrival(e.snapScratch)
	}
	return e.snapScratch
}

// advance moves bytes for one interval and retires finished coflows.
// Bytes move off the rated list when beginInterval built one, else by
// walking every sendable flow; each completed flow is completed in its
// CoFlow's summary (coflow.CoFlow.Complete). Then one
// pass in e.active order retires the finished — so Result.CoFlows keeps
// admission order within an interval — and compacts the survivors into
// the active slice in place (writes trail reads), so steady-state
// epochs reuse its backing array.
func (e *engine) advance(alloc *sched.RateVec, dt coflow.Time) {
	if e.rateDriven {
		for i := range e.rated {
			if r := &e.rated[i]; r.rate > 0 {
				if at, done := e.moveBytes(r.owner, r.f, r.rate, dt); done {
					r.owner.Complete(r.f, at)
				}
			}
		}
	} else {
		e.moveBytesDense(alloc, dt)
	}
	still := e.active[:0]
	for _, c := range e.active {
		if c.RefreshDone() {
			e.retire(c)
		} else {
			still = append(still, c)
		}
	}
	e.active = still
}

// moveBytesDense advances every sendable flow of the active set that
// holds a positive rate. A CoFlow's completions are completed together
// after its walk, which Complete would otherwise shorten under it.
func (e *engine) moveBytesDense(alloc *sched.RateVec, dt coflow.Time) {
	for _, c := range e.active {
		done := e.finished[:0]
		for _, f := range c.SendableFlows() {
			if rate, ok := alloc.Get(f.Idx); ok && rate > 0 {
				if at, finished := e.moveBytes(c, f, rate, dt); finished {
					done = append(done, coflow.Completion{Flow: f, At: at}) // amortized: grows to the widest CoFlow's completions in one interval
				}
			}
		}
		if len(done) > 0 {
			c.CompleteAll(done)
			e.finished = done
		}
	}
}

// moveBytes sends owner's flow f at rate for dt and reports whether that
// finished it and when, crediting the completion at its exact time
// inside the interval. Every byte the engine moves, or takes back in a
// restart, goes through here; on a completion it records every byte
// sent and leaves the Complete to the caller.
func (e *engine) moveBytes(owner *coflow.CoFlow, f *coflow.Flow, rate coflow.Rate, dt coflow.Time) (coflow.Time, bool) {
	eff := f.EffectiveRate(rate, e.cfg.PortRate)
	moved := eff.Transfer(dt)
	rem := f.Remaining()
	if moved < rem {
		owner.Progress(f, f.Sent()+moved)
		e.maybeRestart(owner, f)
		return 0, false
	}
	owner.Progress(f, f.Size)
	return min(e.now+eff.TimeToSend(rem), e.now+dt), true
}

// maybeRestart applies a rolled one-time failure: the flow loses all
// progress once it crosses the RestartAt fraction.
func (e *engine) maybeRestart(owner *coflow.CoFlow, f *coflow.Flow) {
	d := e.cfg.Dynamics
	if d == nil || !e.restartPending[f.Idx] {
		return
	}
	at := d.RestartAt
	if at <= 0 || at >= 1 {
		at = 0.5
	}
	if float64(f.Sent()) >= at*float64(f.Size) {
		owner.Restart(f)
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
	gates := len(e.dependents[c.ID()]) > 0 //saath:map-ok once per CoFlow at retirement; DAG gates name CoFlows not yet admitted, so by ID
	if gates {
		e.doneAt[c.ID()] = c.DoneAt //saath:map-ok as above
		e.pushEvent(event{time: c.DoneAt, kind: eventFlowDone, co: c})
	}
	e.sched.Depart(c, e.now)
	for _, f := range c.Flows {
		e.valFlows[f.Idx] = flowSlot{}
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
		e.flowResults = append(e.flowResults, FlowResult{Size: f.Size, DoneAt: f.DoneAt()})
	}
	res.Flows = e.flowResults[first:len(e.flowResults):len(e.flowResults)]
	e.result.CoFlows = append(e.result.CoFlows, res)
	// Its storage backs a later arrival, unless a queued completion event
	// still names it. (An availability injection never does: a CoFlow
	// with flows held back cannot finish before they are released.)
	if !gates {
		e.spares.Put(c)
	}
}
