// Package runtime is Saath's coordinator (§5), driven in process on
// virtual time.
//
// A Coordinator holds the live CoFlows and, once per δ boundary
// (StepSchedule), asks any sched.Scheduler for their rates and hands
// each sending port its orders. Frameworks reach it through the three
// CoFlow operations of §5: Register, Deregister and Update. One
// InprocAgent per port stands in for a node's local agent: it holds the
// flows it was ordered to send, moves them by rate × δ (Step) and
// reports their progress back (Report, or ReportInproc for a batch).
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
	"sort"
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

// ErrUnknown is returned by Deregister and Update for an ID that is not
// live: never registered, deregistered, or completed.
var ErrUnknown = errors.New("runtime: unknown coflow")

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

// liveCoFlow is the coordinator's state for one registered CoFlow; its
// registration time is rt.Arrived.
type liveCoFlow struct {
	spec *coflow.Spec
	rt   *coflow.CoFlow
}

// FlowOrder tells a sending agent to run one flow at a given rate.
type FlowOrder struct {
	CoFlow  int64
	Index   int
	DstPort int
	Size    int64
	RateBps float64 // bytes per second; 0 pauses the flow
	// slot is the flow's dense index in the coordinator (coflow.Flow.Idx),
	// where in-process agents look the flow up.
	slot int32
	// start is the flow's start stamp (Coordinator.starts): a flow the
	// coordinator started afresh — registered again under a deregistered
	// CoFlow's ID, or resized by Update — is a new flow to its agent.
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

	// agents is indexed by port (nil: no agent attached); setAgent is its
	// writer and keeps nAgents its non-nil count.
	agents  []agentLink
	nAgents int

	// orders is port p's order buffer and touched the ports holding
	// orders this round, first touched first; both are reused every
	// round. slots is the table the in-process agents find their flows
	// in.
	orders  [][]FlowOrder
	touched []int
	slots   slotTable

	// live is the ID lookup reports and the CoFlow operations go through.
	live    map[coflow.CoFlowID]*liveCoFlow
	results []CoFlowResult
	// mergeSince is the wall-clock time the first in-process report since
	// the last round came in (zero: none). The round charges the span up
	// to its own start to the merge phase: one clock read per boundary,
	// where one per report would cost more than the merge it times.
	mergeSince time.Time

	// snap is the scheduler's view, kept across rounds with its RateVec;
	// snap.Active is the live set in (arrival, ID) order, maintained on
	// Register / retire / Deregister / Update and never rebuilt.
	// finishing are the live CoFlows with a flow that finished since the
	// last retirement pass.
	snap      sched.Snapshot
	finishing []*liveCoFlow

	// space assigns the dense flow/coflow indices the scheduler's
	// allocation vector is keyed by; spares is the flow storage of
	// departed CoFlows, which registrations draw from.
	space  *coflow.IndexSpace
	spares coflow.Spares

	// starts holds each live flow's start stamp by dense flow index, and
	// started is the last stamp handed out: it moves whenever a flow
	// starts afresh (Register, and an Update that moves, resizes or adds
	// the flow). Orders carry the stamp, agents key their flows by it,
	// and a report of another stamp — a flow deregistered and registered
	// again under the same ID, or one an Update restarted — is dropped.
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
		live:   make(map[coflow.CoFlowID]*liveCoFlow),
		orders: make([][]FlowOrder, cfg.NumPorts),
		space:  coflow.NewIndexSpace(),
		fab:    fabric.New(cfg.NumPorts, cfg.PortRate),
	}
	c.snap.Fabric = c.fab
	if cfg.Admission.RatePerSec > 0 {
		c.adm = newAdmissionBucket(cfg.Admission.RatePerSec, float64(cfg.Admission.Burst))
	}
	return c, nil
}

// setAgent makes link the agent of port (in [0, NumPorts)).
func (c *Coordinator) setAgent(port int, link agentLink) {
	if c.agents[port] == nil {
		c.nAgents++
	}
	c.agents[port] = link
}

// mergeStat folds the progress of one agent's flow into coordinator
// state at virtual time now and queues its CoFlow for retire if the
// flow finished, and reports whether the flow is a live one. A flow of
// no live CoFlow (deregistered), of an index Update removed, or of
// another start than the live one — a flow of a CoFlow deregistered and
// registered again under the same ID, or a flow Update moved or
// resized — is not the live flow's progress: nothing is merged, and the
// agent drops it. Zero-alloc: every flow of every agent report of every
// boundary goes through here.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (c *Coordinator) mergeStat(af *inprocFlow, now coflow.Time) bool {
	lc := c.live[coflow.CoFlowID(af.key.CoFlow)] //saath:map-ok agents name flows by (coflow ID, index); the ID lookup is the one map on this path
	if lc == nil || af.key.Index >= len(lc.rt.Flows) {
		return false
	}
	f := lc.rt.Flows[af.key.Index]
	if c.starts[f.Idx] != af.key.start {
		return false
	}
	if sent := coflow.Bytes(af.sent); sent > f.Sent() {
		lc.rt.Progress(f, sent)
	}
	lc.rt.SetAvailable(f, true)
	if af.done && !f.Done() {
		lc.rt.Complete(f, now-lc.rt.Arrived)
		c.finishing = append(c.finishing, lc)
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
	slices.SortFunc(c.finishing, func(a, b *liveCoFlow) int { return cmp.Compare(a.spec.ID, b.spec.ID) })
	for _, lc := range c.finishing {
		// An entry may be of a CoFlow deregistered since, with flows still
		// to go, or retired by an earlier entry of this pass.
		if c.live[lc.spec.ID] != lc || !lc.rt.RefreshDone() { //saath:map-ok completion path: once per finished flow, not per boundary
			continue
		}
		c.results = append(c.results, CoFlowResult{
			ID:           lc.spec.ID,
			RegisteredAt: lc.rt.Arrived,
			CompletedAt:  now,
			CCT:          now - lc.rt.Arrived,
			Width:        lc.rt.Width(),
			Bytes:        lc.spec.TotalSize(),
		})
		c.depart(lc, now)
	}
	clear(c.finishing)
	c.finishing = c.finishing[:0]
}

// depart tells the policy a retired or deregistered CoFlow is gone and
// drops it from the live set. A Depart that panics still drops it,
// before the panic goes on to the caller: a retired CoFlow's result is
// recorded, so it must not stay live with nothing pending.
func (c *Coordinator) depart(lc *liveCoFlow, now coflow.Time) {
	defer c.dropLive(lc)
	c.cfg.Scheduler.Depart(lc.rt, now)
}

// byArrival is sched.ByArrival's order, the one snap.Active is kept in;
// (arrival, ID) is unique among live CoFlows, so a binary search lands
// on exactly one position.
func byArrival(a, b *coflow.CoFlow) int {
	if a.Arrived != b.Arrived {
		return cmp.Compare(a.Arrived, b.Arrived)
	}
	return cmp.Compare(a.ID(), b.ID())
}

// dropLive takes a retired or deregistered CoFlow out of the ID lookup,
// the arrival order and the index space, and hands its flow storage to
// later registrations; the caller has told the scheduler. A finishing
// entry may still name lc, but the retire pass skips a CoFlow that is
// not live before it reads its flows.
func (c *Coordinator) dropLive(lc *liveCoFlow) {
	delete(c.live, lc.spec.ID)
	if i, ok := slices.BinarySearchFunc(c.snap.Active, lc.rt, byArrival); ok {
		c.snap.Active = slices.Delete(c.snap.Active, i, i+1)
	}
	c.space.Release(lc.rt)
	c.spares.Put(lc.rt)
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

	// Group orders by sending agent. Every pending flow gets an order
	// (rate 0 pauses), so agents always track the newest rates.
	for _, p := range c.touched {
		c.orders[p] = c.orders[p][:0]
	}
	c.touched = c.touched[:0]
	for _, cf := range c.snap.Active {
		for _, f := range cf.PendingFlows() {
			if c.agents[f.Dst] == nil {
				continue // receiver not attached yet
			}
			src := int(f.Src)
			if len(c.orders[src]) == 0 {
				c.touched = append(c.touched, src)
			}
			c.orders[src] = append(c.orders[src], FlowOrder{
				CoFlow:  int64(cf.ID()),
				Index:   f.ID.Index,
				DstPort: int(f.Dst),
				Size:    int64(f.Size),
				RateBps: float64(alloc.Rate(f.Idx)),
				slot:    int32(f.Idx),
				start:   c.starts[f.Idx],
			})
		}
	}
	t3 := time.Now()
	for _, p := range c.touched {
		if a := c.agents[p]; a != nil {
			a.Deliver(c.orders[p])
		}
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

// AgentCount returns the number of attached agents.
func (c *Coordinator) AgentCount() int { return c.nAgents }

// LiveCount returns the number of admitted, not-yet-completed CoFlows.
func (c *Coordinator) LiveCount() int { return len(c.live) }

// CompletedCount returns the number of completed CoFlows.
func (c *Coordinator) CompletedCount() int { return len(c.results) }

// AdmissionStats returns the admission-control counters: coflows
// admitted and rejected since startup.
func (c *Coordinator) AdmissionStats() (admitted, rejected int64) {
	return c.nAdmitted, c.nRejected
}

// Results returns a copy of the completed CoFlows, sorted by coflow ID
// with completion time as the tie-break — a deterministic order, so
// exports built on it are byte-stable regardless of retirement
// interleaving.
func (c *Coordinator) Results() []CoFlowResult {
	out := append([]CoFlowResult(nil), c.results...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].CompletedAt < out[j].CompletedAt
	})
	return out
}

// Register is register() of §5: it admits and registers one CoFlow at
// virtual time now, every flow starting afresh. This is the
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
	rt := c.spares.New(spec)
	rt.Arrived = now
	c.live[spec.ID] = &liveCoFlow{spec: spec, rt: rt}
	at, _ := slices.BinarySearchFunc(c.snap.Active, rt, byArrival)
	c.snap.Active = slices.Insert(c.snap.Active, at, rt)
	c.space.Assign(rt)
	for _, f := range rt.Flows {
		c.start(f, 0)
	}
	c.cfg.Scheduler.Arrive(rt, now)
	c.nAdmitted++
	return nil
}

// Deregister is deregister() of §5: the CoFlow leaves the live set at
// virtual time now, without a result. Its flows stay at their agents
// until their next report, which matches no live flow, so the agents
// drop them. Returns ErrUnknown for an ID that is not live.
func (c *Coordinator) Deregister(id coflow.CoFlowID, now coflow.Time) error {
	lc, ok := c.live[id]
	if !ok {
		return ErrUnknown
	}
	c.depart(lc, now)
	return nil
}

// Update is update() of §5: it replaces a live CoFlow's flow structure
// (task migration, a restart after failure). A flow that is the same
// start as the one it replaces — same index, sender and size, as
// CoFlow.CarryOver decides — keeps its progress and its start stamp; a
// flow it moves to another sender, resizes or adds starts afresh.
// Returns ErrUnknown for an ID that is not live, or a validation error;
// either way nothing changes.
func (c *Coordinator) Update(spec *coflow.Spec) error {
	if err := c.checkSpec(spec); err != nil {
		return err
	}
	lc, ok := c.live[spec.ID]
	if !ok {
		return ErrUnknown
	}
	old := lc.rt
	kept := make([]uint32, len(old.Flows))
	for i, f := range old.Flows {
		kept[i] = c.starts[f.Idx]
	}
	c.space.Release(old)
	lc.spec = spec
	lc.rt = coflow.New(spec)
	lc.rt.Arrived = old.Arrived
	// Same (arrival, ID), so the new runtime state takes the old one's
	// place in the arrival order.
	if i, ok := slices.BinarySearchFunc(c.snap.Active, old, byArrival); ok {
		c.snap.Active[i] = lc.rt
	}
	// old's flow storage is not handed on (spares): the policy has not
	// been told of the swap, and its kept state may name old until its
	// next Schedule.
	carried := make([]bool, len(spec.Flows))
	lc.rt.CarryOver(old, carried)
	c.space.Assign(lc.rt)
	for i, f := range lc.rt.Flows {
		var stamp uint32 // 0: a fresh start
		if carried[i] {
			stamp = kept[i]
		}
		c.start(f, stamp)
	}
	c.finishing = append(c.finishing, lc) // the new flow set may hold nothing but finished flows
	return nil
}

// start files stamp as f's start stamp, or with stamp 0 a fresh one.
func (c *Coordinator) start(f *coflow.Flow, stamp uint32) {
	if n := f.Idx + 1; n > len(c.starts) {
		c.starts = append(c.starts, make([]uint32, n-len(c.starts))...)
	}
	if stamp == 0 {
		c.started++
		stamp = c.started
	}
	c.starts[f.Idx] = stamp
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
