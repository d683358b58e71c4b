// Package aalo reimplements the Aalo scheduler (Chowdhury & Stoica,
// SIGCOMM 2015) as the paper's primary baseline (§2.2).
//
// Aalo approximates Shortest-CoFlow-First without prior knowledge
// using discrete priority queues: the global coordinator places each
// CoFlow in a queue by the *total* bytes it has sent so far, and each
// port independently schedules its local flows — strict priority
// across queues, FIFO (by CoFlow arrival) within a queue. There is no
// coordination of a CoFlow's flows across ports, which produces the
// out-of-sync behaviour Saath eliminates.
//
// Schedule runs every δ and most boundaries change nothing it decides
// from, so it keeps its last decision: per CoFlow the queue it derived,
// re-derived only where the CoFlow's progress stamp or mutation epoch
// moved, and the vector it returned, handed out again when the same
// CoFlows with the same flows sendable sit in the same queues (held).
// TestHeldScheduleMatchesFull holds that to a twin that forgets.
package aalo

import (
	"cmp"
	"slices"

	"saath/internal/coflow"
	"saath/internal/queues"
	"saath/internal/sched"
)

// Aalo is the baseline scheduler. Per-port work queues are scratch
// reused across intervals (ports are dense indices on the fabric), so
// steady-state scheduling stays allocation-free.
type Aalo struct {
	ladder *queues.Ladder   // the configured queue thresholds
	order  []queued         // the live CoFlows in (queue, arrival, ID) order
	byPort [][]*coflow.Flow // indexed by egress PortID

	// The previous Schedule's decision: snap.Active slot by slot with
	// the queue each CoFlow was in, and the vector that came of it.
	last   []placed
	issued sched.Issued
}

// placed is one snap.Active slot of the previous Schedule: the CoFlow,
// its queue, and the CacheEpoch and ProgressStamp the queue was derived
// under — it stands while both do.
type placed struct {
	queued
	epoch, progress uint64
}

// New builds an Aalo scheduler.
func New(p sched.Params) (*Aalo, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	return &Aalo{ladder: p.Queues.Ladder()}, nil
}

func init() {
	sched.Register("aalo", func(p sched.Params) (sched.Scheduler, error) { return New(p) })
}

// Name implements sched.Scheduler.
func (a *Aalo) Name() string { return "aalo" }

// Arrive implements sched.Scheduler. Aalo derives queue placement
// directly from bytes sent, so no per-CoFlow state is needed.
func (a *Aalo) Arrive(c *coflow.CoFlow, now coflow.Time) {}

// Depart implements sched.Scheduler.
func (a *Aalo) Depart(c *coflow.CoFlow, now coflow.Time) {}

// queued is one live CoFlow pinned to its logical queue.
type queued struct {
	c     *coflow.CoFlow
	queue int
}

// cmpQueued is every port's local order: queue, then arrival, then
// CoFlow ID.
func cmpQueued(a, b queued) int {
	if a.queue != b.queue {
		return cmp.Compare(a.queue, b.queue)
	}
	if a.c.Arrived != b.c.Arrived {
		return cmp.Compare(a.c.Arrived, b.c.Arrived)
	}
	return cmp.Compare(a.c.ID(), b.c.ID())
}

// Schedule emulates Aalo's distributed decision: the coordinator pins
// every CoFlow to a logical queue; each sender port then walks its
// local flows from the highest queue in FIFO order, granting each flow
// the residual min(egress, ingress) capacity. Ports are visited in
// index order, which stands in for the uncoordinated races of the real
// distributed system while keeping the simulation deterministic.
//
// Every port orders its flows by the same key — (queue, arrival,
// CoFlow ID), then flow index — so the CoFlows are sorted once and
// their sendable flows (already in flow-index order) dealt to the port
// lists in that order, which leaves every list sorted.
//
// The decision reads, per CoFlow, its queue and its sendable flows, and
// beyond that only the fabric. When every slot of snap.Active holds the
// CoFlow it held last time, in the queue it was in, under the same
// mutation epoch, the vector returned then is still as it was left, and
// the fabric is at full capacity as it was then, the same walk would fill
// it the same way: it goes out again as it is, the fabric left full (see
// sched.Snapshot.Fabric).
func (a *Aalo) Schedule(snap *sched.Snapshot) *sched.RateVec {
	prev, hold := a.issued.Begin(snap)
	hold = hold && len(snap.Active) == len(a.last)
	for len(a.last) < len(snap.Active) {
		a.last = append(a.last, placed{})
	}
	a.last = a.last[:len(snap.Active)]
	for i, c := range snap.Active {
		p := &a.last[i]
		epoch, progress := c.CacheEpoch(), c.ProgressStamp()
		sameFlows := p.c == c && epoch != 0 && epoch == p.epoch
		q := p.queue
		if !sameFlows || progress != p.progress {
			q = a.ladder.QueueForBytes(c.TotalSent())
		}
		hold = hold && sameFlows && q == p.queue
		*p = placed{queued{c, q}, epoch, progress}
	}
	if hold {
		return prev
	}
	alloc := snap.Allocation()
	np := snap.Fabric.NumPorts()
	for len(a.byPort) < np {
		a.byPort = append(a.byPort, nil)
	}
	for p := 0; p < np; p++ {
		a.byPort[p] = a.byPort[p][:0]
	}
	a.order = a.order[:0]
	for i := range a.last {
		a.order = append(a.order, a.last[i].queued)
	}
	slices.SortStableFunc(a.order, cmpQueued)
	for _, qc := range a.order {
		for _, f := range qc.c.SendableFlows() {
			a.byPort[f.Src] = append(a.byPort[f.Src], f)
		}
	}
	const eps = 1e-3
	for p := 0; p < np; p++ {
		for _, f := range a.byPort[p] {
			r := snap.Fabric.PathFree(f.Src, f.Dst)
			if float64(r) <= eps {
				continue
			}
			alloc.Set(f.Idx, r)
			snap.Fabric.Allocate(f.Src, f.Dst, r)
		}
	}
	a.issued.End(snap, alloc)
	return alloc
}
