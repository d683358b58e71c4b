// Package sched defines the scheduler contract shared by Saath, the
// baselines, the simulator and the distributed prototype, plus helpers
// (contention accounting, deterministic ordering) that several policies
// share.
//
// The model follows the paper's architecture (§4.1): a global
// coordinator recomputes the full-cluster schedule every δ interval
// from CoFlow state, and the resulting per-flow rates are enforced
// until the next schedule arrives.
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/queues"
)

// Snapshot is the cluster state handed to the scheduler each interval.
type Snapshot struct {
	Now coflow.Time
	// Active lists the live (arrived, not finished) CoFlows in
	// deterministic order: arrival time, then ID. The slice is only
	// valid for the duration of the Schedule call — the engine reuses
	// its backing array across intervals; copy it to retain it.
	Active []*coflow.CoFlow
	// Fabric carries full residual capacity; the scheduler draws it
	// down as it assigns rates. What it holds after Schedule returns is
	// scratch no caller reads: a policy that hands out its last decision
	// again (Saath, Aalo) leaves it full rather than redrawing it.
	Fabric *fabric.Fabric

	// FlowCap and CoFlowCap are exclusive upper bounds on the dense
	// Flow.Idx / CoFlow.Idx values present in Active. The engine sets
	// them from its IndexSpace; when zero, Allocation derives them via
	// coflow.EnsureIndexed (hand-built snapshots in tests).
	FlowCap   int
	CoFlowCap int

	// Alloc is the reusable allocation vector for this snapshot.
	// Schedulers obtain it (reset) through Allocation; the engine keeps
	// the snapshot — and therefore the vector — alive across intervals
	// so steady-state ticks allocate nothing.
	Alloc *RateVec
}

// sizeCaps derives FlowCap and CoFlowCap for a hand-built snapshot,
// indexing whatever in Active is not.
func (s *Snapshot) sizeCaps() {
	if s.FlowCap <= 0 || s.CoFlowCap <= 0 {
		s.FlowCap, s.CoFlowCap = coflow.EnsureIndexed(s.Active)
	}
}

// Allocation returns the snapshot's allocation vector, reset and sized
// for every flow index in Active. Every policy starts its Schedule with
// this call — or with Issued.Begin, and reaches this one when it has to
// schedule afresh — and returns the filled vector.
func (s *Snapshot) Allocation() *RateVec {
	s.sizeCaps()
	if s.Alloc == nil {
		s.Alloc = NewRateVec(s.FlowCap)
	}
	s.Alloc.Reset(s.FlowCap)
	return s.Alloc
}

// Issued is what a policy that may hold its last decision keeps of the
// call that made it: the vector it returned, under which content stamp,
// drawn from which fabric. The rest of a hold decision — the CoFlows and
// whatever else the policy reads — is the policy's own.
type Issued struct {
	alloc   *RateVec
	content uint64
	fab     *fabric.Fabric // nil when the decision is not one to repeat
	full    bool           // the call in progress was handed its fabric full
}

// Begin opens a Schedule call in place of Snapshot.Allocation: it sizes
// the snapshot's index caps as that does, resets nothing, and reports
// whether the previous call's vector is still in the snapshot as End
// saw it and was drawn, as this call's would be, from snap.Fabric at
// full capacity. If so, that vector is returned and the policy may hand
// it out again as it is; if not, the policy calls Allocation, schedules
// afresh and closes with End.
func (h *Issued) Begin(snap *Snapshot) (prev *RateVec, stands bool) {
	snap.sizeCaps()
	h.full = snap.Fabric.Full()
	prev = snap.Alloc
	return prev, h.full && snap.Fabric == h.fab && prev == h.alloc && prev.ContentStamp() == h.content
}

// End records the vector a call that scheduled afresh is about to
// return. A decision drawn from a fabric handed over partly drawn is
// not one to repeat: the next Begin reports false.
func (h *Issued) End(snap *Snapshot, alloc *RateVec) {
	h.alloc, h.content, h.fab = alloc, alloc.ContentStamp(), snap.Fabric
	if !h.full {
		h.fab = nil
	}
}

// Scheduler is a global CoFlow scheduling policy.
//
// Implementations keep per-CoFlow state in slices keyed by CoFlow.Idx;
// Arrive and Depart bracket a CoFlow's lifetime, and its owner calls
// them while the CoFlow holds its index (after IndexSpace.Assign,
// before Release). Schedule must be deterministic
// given the same event sequence. The returned vector is the one handed
// out by Snapshot.Allocation (or nil for "nothing scheduled"); it is
// only valid until the next Schedule call on the same snapshot, and
// read-only to the caller — a policy may hand the same vector out again
// for a boundary that changed nothing, and tells by its ContentStamp
// whether a caller wrote to it (it then schedules afresh).
type Scheduler interface {
	Name() string
	Arrive(c *coflow.CoFlow, now coflow.Time)
	Depart(c *coflow.CoFlow, now coflow.Time)
	Schedule(snap *Snapshot) *RateVec
}

// Params carries the knobs shared across schedulers. Zero values are
// replaced by paper defaults via Normalize.
type Params struct {
	Queues queues.Config

	// DeadlineFactor is d in the starvation deadline d·C_q·t (§4.2 D5).
	DeadlineFactor float64

	// WorkConservation toggles scheduling of leftover bandwidth to
	// CoFlows that failed all-or-none admission (§4.2 D4). On by
	// default; the ablation bench turns it off.
	WorkConservation bool

	// PerFlowThresholds selects Saath's Eq. 1 queue placement; when
	// false the Saath ablations fall back to Aalo's total-bytes rule.
	PerFlowThresholds bool

	// LCoF selects Least-Contention-First intra-queue ordering; when
	// false the ablations use FIFO.
	LCoF bool

	// DynamicsSRTF enables the §4.3 straggler/failure optimization:
	// once some flows finish, estimate remaining length from the
	// median finished flow and re-queue the CoFlow accordingly.
	DynamicsSRTF bool

	// WidthContentionProxy replaces the blocked-CoFlow count k_c with
	// CoFlow width as the LCoF key — a cheaper proxy evaluated by the
	// contention-metric ablation bench. Off in the paper's design.
	WidthContentionProxy bool
}

// DefaultParams returns the paper's defaults with every Saath feature
// enabled.
func DefaultParams() Params {
	return Params{
		Queues:            queues.Default(),
		DeadlineFactor:    2,
		WorkConservation:  true,
		PerFlowThresholds: true,
		LCoF:              true,
		DynamicsSRTF:      true,
	}
}

// Normalize fills zero values with defaults and validates the result.
func (p Params) Normalize() (Params, error) {
	if p.Queues.NumQueues == 0 && p.Queues.StartThreshold == 0 && p.Queues.Growth == 0 {
		p.Queues = queues.Default()
	}
	if p.DeadlineFactor == 0 {
		p.DeadlineFactor = 2
	}
	if err := p.Queues.Validate(); err != nil {
		return p, err
	}
	if p.DeadlineFactor < 1 {
		return p, fmt.Errorf("sched: DeadlineFactor=%v, need >=1", p.DeadlineFactor)
	}
	return p, nil
}

// ArrivalOrder compares two CoFlows by (arrival, ID): the canonical
// FIFO order used by Aalo and by Saath's deadline bookkeeping, and the
// order Snapshot.Active is in.
func ArrivalOrder(a, b *coflow.CoFlow) int {
	if a.Arrived != b.Arrived {
		return cmp.Compare(a.Arrived, b.Arrived)
	}
	return cmp.Compare(a.ID(), b.ID())
}

// ByArrival sorts CoFlows in place by ArrivalOrder. It allocates
// nothing, so the engine calls it every interval.
func ByArrival(cs []*coflow.CoFlow) {
	slices.SortStableFunc(cs, ArrivalOrder)
}

// Factory builds a scheduler from parameters.
type Factory func(Params) (Scheduler, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register adds a named scheduler factory. It panics on duplicates so
// wiring mistakes fail loudly at init time.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("sched: duplicate scheduler " + name)
	}
	registry[name] = f
}

// New instantiates a registered scheduler.
func New(name string, p Params) (Scheduler, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, Names())
	}
	return f(p)
}

// Names lists the registered schedulers, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SlotStamps is what a consumer of an active list keeps of the one it
// last computed from: slot by slot, the CoFlow and its mutation epoch.
// Whatever is derived from the CoFlows' flow sets alone — which flows
// are pending and sendable, between which ports — stands while the list
// holds the same CoFlows under the same epochs. UC-TCP's schedule and
// telemetry's port occupancy are two such things; neither reads Sent, so
// the progress stamp is not part of the key.
type SlotStamps struct {
	last  []slotStamp
	valid bool
}

type slotStamp struct {
	c     *coflow.CoFlow
	epoch uint64
}

// Same records active as the list last seen and reports whether it
// holds, slot by slot, the CoFlows the previous call recorded, under the
// same mutation epochs. A CoFlow at epoch 0 (built as a zero value, so
// uncached) never stands, and neither does anything before the first
// call or after Reset.
//
//saath:hotpath
func (s *SlotStamps) Same(active []*coflow.CoFlow) bool {
	same := s.valid && len(active) == len(s.last)
	s.last = coflow.Grow(s.last, len(active))[:len(active)]
	for i, c := range active {
		st := slotStamp{c, c.CacheEpoch()}
		same = same && st.epoch != 0 && st == s.last[i]
		s.last[i] = st
	}
	s.valid = true
	return same
}

// Reset forgets the list last seen: the next Same reports false.
func (s *SlotStamps) Reset() { s.last, s.valid = s.last[:0], false }
