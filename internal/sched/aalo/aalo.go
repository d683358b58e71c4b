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
func (a *Aalo) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := snap.Allocation()
	np := snap.Fabric.NumPorts()
	for len(a.byPort) < np {
		a.byPort = append(a.byPort, nil)
	}
	for p := 0; p < np; p++ {
		a.byPort[p] = a.byPort[p][:0]
	}
	a.order = a.order[:0]
	for _, c := range snap.Active {
		a.order = append(a.order, queued{c: c, queue: a.ladder.QueueForBytes(c.TotalSent())})
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
	return alloc
}
