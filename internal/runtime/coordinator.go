// Package runtime is Saath's coordinator (§5), driven in process on
// virtual time.
//
// A Coordinator holds the live CoFlows and, once per δ boundary
// (StepSchedule), asks any sched.Scheduler for their rates and hands
// each sending port its orders. Frameworks reach it through §5's
// register() (Register); a CoFlow leaves when its last flow completes.
// One InprocAgent per port stands in for a node's local agent: it holds the
// flows it was ordered to send, moves them by rate × δ (Step) and
// reports their progress back (ReportInproc, one batch of agents per
// call).
//
// A Coordinator and its agents have one owner, the driver, and one time
// axis, the scheduler's coflow.Time: like the simulator's engine and
// every sched.Scheduler, they are a state machine that nothing else
// calls, and every operation takes the virtual time it happens at. The
// driver (testbed.RunJob for studies) owns time and δ: it steps and
// reports the agents, then runs the boundary. Agents therefore move
// bytes at the rates of the previous boundary — one δ of control lag,
// the pipelining of the paper's prototype — and every result is a pure
// function of the workload. Wall-clock time is measured
// (ScheduleLatency, Phases) but never fed back.
package runtime

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// AdmissionConfig is the coordinator's admission-control front: a
// token-bucket rate limit applied to coflow registrations at arrival
// time, against live coordinator state. The zero value admits
// everything.
//
// Admission is an arrival-time decision by design — the lesson from
// batch-dispatch systems is that load-aware decisions made against a
// snapshot (or not at all) admit work the cluster cannot carry. A
// rejected registration returns ErrAdmission; callers decide whether to
// drop or retry.
type AdmissionConfig struct {
	// RatePerSec is the sustained admission rate in coflows per second;
	// 0 disables rate-based admission.
	RatePerSec float64
	// Burst is the token-bucket depth in coflows (how large an arrival
	// burst is admitted at once); 0 defaults to max(1, RatePerSec).
	Burst int
	// MaxLive caps concurrently live (admitted, not yet completed)
	// coflows; 0 means unlimited. Checked against live coordinator
	// state at the moment of arrival.
	MaxLive int
}

// CoordinatorConfig configures the global coordinator.
type CoordinatorConfig struct {
	// Scheduler computes each boundary's rates (any registered policy).
	Scheduler sched.Scheduler
	// NumPorts is the cluster size; agents attach as ports 0..N-1.
	NumPorts int
	// PortRate is the per-port rate the scheduler may hand out (default
	// 12.5e6 B/s, 100 Mbps).
	PortRate coflow.Rate
	// Admission is the arrival-time admission-control front.
	Admission AdmissionConfig
}

func (c CoordinatorConfig) withDefaults() (CoordinatorConfig, error) {
	if c.Scheduler == nil {
		return c, errors.New("runtime: coordinator needs a scheduler")
	}
	if c.NumPorts <= 0 {
		return c, errors.New("runtime: coordinator needs NumPorts > 0")
	}
	if c.PortRate <= 0 {
		c.PortRate = coflow.Rate(12.5e6)
	}
	if c.Admission.RatePerSec > 0 && c.Admission.Burst <= 0 {
		c.Admission.Burst = int(c.Admission.RatePerSec)
		if c.Admission.Burst < 1 {
			c.Admission.Burst = 1
		}
	}
	return c, nil
}

// ErrAdmission is returned by Register when the admission-control
// front rejects a coflow (rate limit exceeded or live cap reached).
var ErrAdmission = errors.New("runtime: admission rejected")

// ErrDuplicate is returned by Register for an ID that is live.
var ErrDuplicate = errors.New("runtime: coflow already registered")

// CoFlowResult is a completed CoFlow as measured by the coordinator, in
// virtual time.
type CoFlowResult struct {
	ID           coflow.CoFlowID
	RegisteredAt coflow.Time
	CompletedAt  coflow.Time
	CCT          coflow.Time
	Width        int
	Bytes        coflow.Bytes
}

// FlowOrder tells a sending agent to run one flow at a given rate.
type FlowOrder struct {
	CoFlow  int64
	Index   int32
	DstPort coflow.PortID
	Size    int64
	RateBps float64 // bytes per second; 0 pauses the flow
	// slot is the flow's dense index in the coordinator (coflow.Flow.Idx),
	// where in-process agents look the flow up.
	slot int32
	// start is the stamp of the flow's registration (Coordinator.starts):
	// a CoFlow registered again under an ID is new to the agents.
	start uint32
}

// agentLink is the seam between the coordinator and one port's agent:
// an InprocAgent, or a test's wrapper around one.
type agentLink interface {
	// Deliver hands the agent its orders for one boundary. It must not
	// call back into the coordinator and must not retain orders past the
	// call. Each order carries its flow's dense
	// index (FlowOrder.slot), which is what lets in-process agents share
	// one slot table.
	Deliver(orders []FlowOrder)
}

// Coordinator is the global Saath coordinator. It has one owner, the
// driver, and nothing in it locks: no two of its methods may run at
// once.
type Coordinator struct {
	cfg CoordinatorConfig

	// agents is indexed by port (nil: no agent attached).
	agents []agentLink

	// orders holds a round's orders, bucketed by sending port in the
	// order of touched, the ports holding orders this round, first
	// touched first. ends is indexed by port: a touched port's bucket
	// ends there (it is zero for every port off touched between rounds).
	// All three are reused every round. slots is the table the in-process
	// agents keep their flows in.
	orders  []FlowOrder
	touched []int
	ends    []int32
	slots   slotTable

	// live is the ID lookup registrations and retirements go through; a
	// CoFlow's registration time is its Arrived. bySlot is the live
	// CoFlow that owns each dense flow index (nil: none), where reports
	// find their flow.
	live    map[coflow.CoFlowID]*coflow.CoFlow
	bySlot  []*coflow.CoFlow
	results []CoFlowResult
	// mergeSince is the wall-clock time the first in-process report since
	// the last round came in (zero: none). The round charges the span up
	// to its own start to the merge phase: one clock read per boundary,
	// where one per report would cost more than the merge it times.
	mergeSince time.Time

	// snap is the scheduler's view, kept across rounds with its RateVec;
	// snap.Active is the live set in (arrival, ID) order, maintained on
	// Register and retire and never rebuilt.
	// finishing are the live CoFlows with a flow that finished since the
	// last retirement pass.
	snap      sched.Snapshot
	finishing []*coflow.CoFlow

	// space assigns the dense flow/coflow indices the scheduler's
	// allocation vector is keyed by; spares is the flow storage of
	// departed CoFlows, which registrations draw from.
	space  *coflow.IndexSpace
	spares coflow.Spares

	// starts holds each live CoFlow's registration stamp by dense CoFlow
	// index, and started is the last stamp handed out. Orders carry the
	// stamp, agents key their flows by it, and a report of another stamp
	// is dropped: a copy of a flow that an agent kept after its CoFlow
	// retired — one a detached agent holds — is not the flow of a CoFlow
	// registered again under the same ID.
	starts  []uint32
	started uint32

	// fab is the scheduling fabric, reset each round.
	fab *fabric.Fabric

	// adm is the admission token bucket (nil: no rate admission).
	adm       *tokenBucket
	nAdmitted int64
	nRejected int64

	// schedStats mirrors Table 2: wall-clock cost of Schedule calls,
	// with a bounded P90 reservoir; phases splits the rest of a
	// boundary. This is measurement, not simulation state — it never
	// feeds back into scheduling decisions or results.
	schedStats scheduleStats
	phases     PhaseTotals
}

// PhaseTotals is the wall-clock time the coordinator has spent in each
// phase of its δ boundaries since startup: folding agent reports into
// flow state (the span from a boundary's first report to its schedule
// round), retiring completed CoFlows and resetting the fabric, the
// Schedule calls, grouping the allocation into per-agent orders, and
// handing them over. Out-of-band, like ScheduleLatency.
type PhaseTotals struct {
	Merge, Retire, Schedule, Encode, Deliver time.Duration
}

// NewCoordinator validates the config and returns an idle coordinator
// at virtual time 0: the caller attaches in-process agents
// (AttachInproc) and drives scheduling with StepSchedule.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		agents: make([]agentLink, cfg.NumPorts),
		live:   make(map[coflow.CoFlowID]*coflow.CoFlow),
		space:  coflow.NewIndexSpace(),
		fab:    fabric.New(cfg.NumPorts, cfg.PortRate),
	}
	c.snap.Fabric = c.fab
	if cfg.Admission.RatePerSec > 0 {
		c.adm = newAdmissionBucket(cfg.Admission.RatePerSec, float64(cfg.Admission.Burst))
	}
	return c, nil
}

// mergeStat folds the progress of one agent's flow, filed under the
// dense flow index slot, into coordinator state at virtual time now and
// queues its CoFlow for retire if the flow finished, and reports
// whether the flow is a live one. A flow of no live CoFlow, or of
// another registration than the live one under its ID, is not the live
// flow's progress: nothing is merged, and the agent drops it. Within a
// registration a flow keeps its index, so the CoFlow that owns slot is
// the only one a live flow filed there can be of. Zero-alloc: every
// flow of every agent report of every boundary goes through here.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (c *Coordinator) mergeStat(slot int32, af *slotEntry, now coflow.Time) bool {
	cf := c.bySlot[slot]
	if cf == nil || int64(cf.ID()) != af.key.CoFlow || c.starts[cf.Idx] != af.key.start {
		return false
	}
	f := cf.Flows[af.key.Index]
	if sent := coflow.Bytes(af.sent); sent > f.Sent() {
		cf.Progress(f, sent)
	}
	cf.SetAvailable(f, true)
	if af.done && !f.Done() {
		cf.Complete(f, now-cf.Arrived)
		c.finishing = append(c.finishing, cf)
	}
	return true
}

// retire moves completed CoFlows from live to results at virtual time
// now. Only the CoFlows in finishing — one entry per flow that finished
// — are looked at, so a pass costs those flows, not the live set; and
// they are processed in ID order: the results append order and —
// critically — the IndexSpace release order are both deterministic, so
// later index assignments (and any scheduler tie-break that touches
// them) cannot drift with report order.
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (c *Coordinator) retire(now coflow.Time) {
	if len(c.finishing) == 0 {
		return
	}
	slices.SortFunc(c.finishing, func(a, b *coflow.CoFlow) int { return cmp.Compare(a.ID(), b.ID()) })
	for _, cf := range c.finishing {
		// An entry may be of a CoFlow retired by an earlier entry of this
		// pass: its header stays readable, and it is no longer live.
		if c.live[cf.ID()] != cf || !cf.RefreshDone() { //saath:map-ok completion path: once per finished flow, not per boundary
			continue
		}
		n := len(c.results)
		c.results = coflow.Grow(c.results, n+1) // doubles: the results are kept for the job
		c.results[n] = CoFlowResult{
			ID:           cf.ID(),
			RegisteredAt: cf.Arrived,
			CompletedAt:  now,
			CCT:          now - cf.Arrived,
			Width:        cf.Width(),
			Bytes:        cf.Spec.TotalSize(),
		}
		c.depart(cf, now)
	}
	clear(c.finishing)
	c.finishing = c.finishing[:0]
}

// depart tells the policy a retired CoFlow is gone and drops it from
// the live set. A Depart that panics still drops it, before the panic
// goes on to the caller: a retired CoFlow's result is recorded, so it
// must not stay live with nothing pending.
func (c *Coordinator) depart(cf *coflow.CoFlow, now coflow.Time) {
	defer c.dropLive(cf)
	c.cfg.Scheduler.Depart(cf, now)
}

// dropLive takes a retired CoFlow out of the ID lookup, the slot
// lookup, the arrival order and the index space, and hands its flow
// storage to later registrations; the caller has told the scheduler. A
// finishing entry may still name cf, but the retire pass skips a CoFlow
// that is not live before it reads its flows.
func (c *Coordinator) dropLive(cf *coflow.CoFlow) {
	delete(c.live, cf.ID())
	for _, f := range cf.Flows {
		c.bySlot[f.Idx] = nil
	}
	// snap.Active is in sched.ArrivalOrder, and (arrival, ID) is unique
	// among live CoFlows, so the search lands on exactly one position.
	if i, ok := slices.BinarySearchFunc(c.snap.Active, cf, sched.ArrivalOrder); ok {
		c.snap.Active = slices.Delete(c.snap.Active, i, i+1)
	}
	c.space.Release(cf)
	c.spares.Put(cf)
}

// StepSchedule runs one δ boundary at virtual time now: retire completed
// CoFlows, compute the schedule, hand orders to the attached agents,
// first-touched port first. It returns the number of still-live
// CoFlows after retirement. A policy that panics — in Schedule, or in a
// Depart while retiring — hands the panic to the caller, and the next
// boundary runs as usual.
//
// Its cost contract: work follows the live flows and the ports they
// touch — never NumPorts, apart from one word per 32 ports in the
// fabric reset — and a boundary whose live set did not change allocates
// nothing.
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (c *Coordinator) StepSchedule(now coflow.Time) (live int) {
	t0 := time.Now()
	var merge time.Duration
	if !c.mergeSince.IsZero() {
		merge, c.mergeSince = t0.Sub(c.mergeSince), time.Time{}
	}
	// Boundary retirement: reports do not retire (ReportInproc), so
	// completions are collected here, once per round, in ID order.
	c.retire(now)
	live = len(c.snap.Active)
	c.fab.Reset()
	c.snap.Now = now
	c.snap.FlowCap, c.snap.CoFlowCap = c.space.FlowCap(), c.space.CoFlowCap()
	t1 := time.Now()
	alloc := c.cfg.Scheduler.Schedule(&c.snap)
	t2 := time.Now()

	// Group orders by sending agent, in one buffer. Every pending flow
	// gets an order (rate 0 pauses), so agents always track the newest
	// rates. A stable counting pass: the first walk counts each sender's
	// orders, touching senders in walk order, and the second writes each
	// order at its sender's cursor, so a port's orders keep walk order.
	for _, p := range c.touched {
		c.ends[p] = 0
	}
	c.touched = c.touched[:0]
	n := int32(0)
	for _, cf := range c.snap.Active {
		for _, f := range cf.PendingFlows() {
			if c.agents[f.Dst] == nil {
				continue // receiver not attached yet
			}
			src := int(f.Src)
			c.ends = coflow.Grow(c.ends, src+1) // the counts follow the ports touched
			if c.ends[src] == 0 {
				c.touched = append(c.touched, src)
			}
			c.ends[src]++
			n++
		}
	}
	at := int32(0)
	for _, p := range c.touched {
		at, c.ends[p] = at+c.ends[p], at // the bucket's start: its cursor
	}
	c.orders = coflow.Grow(c.orders, int(n))
	for _, cf := range c.snap.Active {
		start := c.starts[cf.Idx]
		for _, f := range cf.PendingFlows() {
			if c.agents[f.Dst] == nil {
				continue
			}
			end := &c.ends[f.Src]
			c.orders[*end] = FlowOrder{
				CoFlow:  int64(cf.ID()),
				Index:   int32(f.Index()),
				DstPort: f.Dst,
				Size:    int64(f.Size),
				RateBps: float64(alloc.Rate(f.Idx)),
				slot:    int32(f.Idx),
				start:   start,
			}
			*end++ // past the pass, the bucket's end
		}
	}
	t3 := time.Now()
	from := int32(0)
	for _, p := range c.touched {
		if a := c.agents[p]; a != nil {
			a.Deliver(c.orders[from:c.ends[p]:c.ends[p]])
		}
		from = c.ends[p]
	}
	t4 := time.Now()

	c.schedStats.record(t2.Sub(t1))
	c.phases.Merge += merge
	c.phases.Retire += t1.Sub(t0)
	c.phases.Encode += t3.Sub(t2)
	c.phases.Deliver += t4.Sub(t3)
	return live
}

// Phases reports where the coordinator's boundary time went so far.
// Schedule is read from the latency recorder, so it is exactly the sum
// ScheduleLatency's mean divides.
func (c *Coordinator) Phases() PhaseTotals {
	p := c.phases
	p.Schedule = c.schedStats.total
	return p
}

// ScheduleLatency reports the coordinator's Table-2 cost: wall-clock
// Schedule-call count, mean, max and P90. Out-of-band measurement —
// never part of deterministic study output.
func (c *Coordinator) ScheduleLatency() (calls int, mean, max, p90 time.Duration) {
	return c.schedStats.calls, c.schedStats.mean(), c.schedStats.max, c.schedStats.p90()
}

// AdmissionStats returns the admission-control counters: coflows
// admitted and rejected since startup.
func (c *Coordinator) AdmissionStats() (admitted, rejected int64) {
	return c.nAdmitted, c.nRejected
}

// Results returns the completed CoFlows, sorted by coflow ID with
// completion time as the tie-break — a deterministic order, so exports
// built on it are byte-stable regardless of retirement interleaving.
// The list is the coordinator's own, sorted in place and clipped: the
// coordinator only appends to it, and no two results share an ID and a
// completion time, so it reads the same until a later boundary retires
// a CoFlow and the next Results call sorts that in. Copy it to keep it
// past that.
func (c *Coordinator) Results() []CoFlowResult {
	slices.SortFunc(c.results, func(a, b CoFlowResult) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.CompletedAt, b.CompletedAt))
	})
	return slices.Clip(c.results)
}

// Register is register() of §5: it admits and registers one CoFlow at
// virtual time now, under a fresh registration stamp. This is the
// arrival-time decision point: the admission bucket and the live-coflow
// cap are consulted against live coordinator state the instant the
// coflow arrives — not batched, not deferred to a schedule round.
// Returns ErrAdmission on rejection, ErrDuplicate for a live ID, or a
// validation error.
func (c *Coordinator) Register(spec *coflow.Spec, now coflow.Time) error {
	if err := c.checkSpec(spec); err != nil {
		return err
	}
	if _, dup := c.live[spec.ID]; dup {
		return ErrDuplicate
	}
	if c.cfg.Admission.MaxLive > 0 && len(c.live) >= c.cfg.Admission.MaxLive ||
		c.adm != nil && !c.adm.TryTake(1, now) {
		c.nRejected++
		return ErrAdmission
	}
	cf := c.spares.New(spec)
	cf.Arrived = now
	c.live[spec.ID] = cf
	at, _ := slices.BinarySearchFunc(c.snap.Active, cf, sched.ArrivalOrder)
	c.snap.Active = slices.Insert(c.snap.Active, at, cf)
	c.space.Assign(cf)
	c.bySlot = coflow.Grow(c.bySlot, c.space.FlowCap())
	for _, f := range cf.Flows {
		c.bySlot[f.Idx] = cf
	}
	c.starts = coflow.Grow(c.starts, cf.Idx+1)
	c.started++
	c.starts[cf.Idx] = c.started
	c.cfg.Scheduler.Arrive(cf, now)
	c.nAdmitted++
	return nil
}

// checkSpec is the gate every spec passes before it can reach the
// port-indexed state: structurally valid, every port inside the fabric.
func (c *Coordinator) checkSpec(spec *coflow.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, f := range spec.Flows {
		if int(f.Src) >= c.cfg.NumPorts || int(f.Dst) >= c.cfg.NumPorts {
			return fmt.Errorf("runtime: coflow %d: port out of range", spec.ID)
		}
	}
	return nil
}
