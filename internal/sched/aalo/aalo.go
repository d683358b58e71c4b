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
//
// A boundary that does decide afresh costs the ports it can still fill:
// the CoFlows are bucketed by queue in arrival order, their flows dealt
// from the compact port view, and a sender's walk ends where its egress
// closes. Each step is exact (see Schedule); TestFillMatchesReference and
// FuzzAaloFill hold the fill bit for bit to a reference that sorts the
// CoFlows and walks every sendable flow.
package aalo

import (
	"slices"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/queues"
	"saath/internal/sched"
)

// Aalo is the baseline scheduler. Per-port work queues are scratch
// reused across intervals (ports are dense indices on the fabric), so
// steady-state scheduling stays allocation-free.
type Aalo struct {
	ladder *queues.Ladder   // the configured queue thresholds
	starts []int            // counting-sort bucket starts, one per queue and one past
	order  []*coflow.CoFlow // the live CoFlows in (queue, arrival, ID) order
	byPort [][]dealt        // indexed by egress PortID

	// The previous Schedule's decision: snap.Active slot by slot with
	// the queue each CoFlow was in, and the vector that came of it.
	last   []placed
	issued sched.Issued
}

// dealt is one sendable flow on its sender's list, with its receiver
// copied out of the CoFlow's port view: the walk reads the flow itself
// only to grant it a rate.
type dealt struct {
	f   *coflow.Flow
	dst coflow.PortID
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
	return &Aalo{ladder: p.Queues.Ladder(), starts: make([]int, p.Queues.NumQueues+1)}, nil
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

// eps is the residual at or below which a path is busy: a flow is
// granted nothing there, and a sender whose egress is down to it has
// nothing left to give.
const eps = 1e-3

// Schedule emulates Aalo's distributed decision: the coordinator pins
// every CoFlow to a logical queue; each sender port then walks its
// local flows from the highest queue in FIFO order, granting each flow
// the residual min(egress, ingress) capacity. Ports are visited in
// index order, which stands in for the uncoordinated races of the real
// distributed system while keeping the simulation deterministic.
//
// The decision reads, per CoFlow, its queue and its sendable flows, and
// beyond that only the fabric. When every slot of snap.Active holds the
// CoFlow it held last time, in the queue it was in, under the same
// mutation epoch, the vector returned then is still as it was left, and
// the fabric is at full capacity as it was then, the same walk would fill
// it the same way: it goes out again as it is, the fabric left full (see
// sched.Snapshot.Fabric).
//
// Otherwise fill decides afresh. Every port orders its flows by the same
// key — (queue, arrival, CoFlow ID), then flow index — and fill reaches
// the walk's result in three steps, each exact:
//
//  1. Queue order without a comparison sort. The CoFlows are bucketed
//     by queue in one stable counting pass over snap.Active. The
//     sched.Snapshot contract keeps Active in (arrival, ID) order, and a
//     stable pass keeps that order within each bucket, so the result is
//     the (queue, arrival, ID) sort.
//  2. Deal from the compact view. Each CoFlow's sendable flows, already
//     in flow-index order, are dealt to their senders' lists in that
//     order, which leaves every list sorted. The (Src, Dst) come from
//     the CoFlow's port view (SendablePorts), so the walk dereferences
//     only the flows it grants.
//  3. Stop at a closed egress. A grant is PathFree, at most the sender's
//     egress residual, and within a call residuals only fall. A sender
//     whose egress is at or below eps when its turn comes would grant
//     every flow nothing, so it is skipped; once a grant takes its
//     egress to eps or below, every later flow of its list would be
//     granted nothing too, so its walk stops there.
func (a *Aalo) Schedule(snap *sched.Snapshot) *sched.RateVec {
	prev, hold := a.issued.Begin(snap)
	hold = hold && len(snap.Active) == len(a.last)
	a.last = coflow.Grow(a.last, len(snap.Active))[:len(snap.Active)]
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
	a.fill(snap.Fabric, alloc)
	a.issued.End(snap, alloc)
	return alloc
}

// fill grants every sender port's flows, in the order they are queued
// at that port, the residual path capacity, drawing it from fab (the
// three steps are Schedule's). It takes the *fabric.Fabric itself, so
// this package imports fabric: with fabric reached only through
// sched.Snapshot, go1.24 left PathFree and EgressFree calls instead of
// inlining them into the walk.
func (a *Aalo) fill(fab *fabric.Fabric, alloc *sched.RateVec) {
	np := fab.NumPorts()
	a.byPort = coflow.Grow(a.byPort, np)
	for p := 0; p < np; p++ {
		a.byPort[p] = a.byPort[p][:0]
	}
	clear(a.starts)
	for i := range a.last {
		a.starts[a.last[i].queue+1]++
	}
	for q := 1; q < len(a.starts); q++ {
		a.starts[q] += a.starts[q-1]
	}
	a.order = slices.Grow(a.order[:0], len(a.last))[:len(a.last)]
	for i := range a.last {
		q := a.last[i].queue
		a.order[a.starts[q]] = a.last[i].c
		a.starts[q]++
	}
	for _, c := range a.order {
		flows := c.SendableFlows()
		for i, pp := range c.SendablePorts() {
			a.byPort[pp.Src] = append(a.byPort[pp.Src], dealt{flows[i], coflow.PortID(pp.Dst)})
		}
	}
	for p := 0; p < np; p++ {
		src := coflow.PortID(p)
		if float64(fab.EgressFree(src)) <= eps {
			continue
		}
		for _, d := range a.byPort[p] {
			r := fab.PathFree(src, d.dst)
			if float64(r) <= eps {
				continue
			}
			alloc.Set(d.f.Idx, r)
			fab.Allocate(src, d.dst, r)
			if float64(fab.EgressFree(src)) <= eps {
				break
			}
		}
	}
}
