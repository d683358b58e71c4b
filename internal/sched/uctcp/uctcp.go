// Package uctcp implements UC-TCP, the uncoordinated baseline of §6.1:
// no global coordinator, no priority queues — every flow starts as it
// arrives and the fabric's bandwidth settles to the max-min fair
// allocation that competing TCP flows converge to.
//
// The allocation depends only on which flows are sendable, between
// which ports, and on the fabric: not on bytes sent or flow sizes. So
// UC-TCP keeps its last decision, as Aalo does: when snap.Active holds,
// slot by slot, the CoFlows of the previous call under the same
// mutation epochs (sched.SlotStamps), and the vector returned then is
// as it was left and was drawn from the same fabric at full capacity
// (sched.Issued), it goes out again without filling. A boundary at
// which no flow arrived, finished or changed availability costs a
// check. TestHeldScheduleMatchesFull holds that to a twin that forgets.
package uctcp

import (
	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// UCTCP is the uncoordinated TCP-fair-sharing baseline. The demand and
// rate scratch is reused across intervals.
type UCTCP struct {
	demands []fabric.Demand
	flows   []*coflow.Flow
	rates   []coflow.Rate

	// The previous Schedule's decision: the CoFlows it was computed
	// for, and the vector that came of it.
	slots  sched.SlotStamps
	issued sched.Issued
}

// New builds a UC-TCP scheduler.
func New(sched.Params) (*UCTCP, error) { return &UCTCP{}, nil }

func init() {
	sched.Register("uc-tcp", func(p sched.Params) (sched.Scheduler, error) { return New(p) })
}

// Name implements sched.Scheduler.
func (u *UCTCP) Name() string { return "uc-tcp" }

// Arrive implements sched.Scheduler.
func (u *UCTCP) Arrive(*coflow.CoFlow, coflow.Time) {}

// Depart implements sched.Scheduler.
func (u *UCTCP) Depart(*coflow.CoFlow, coflow.Time) {}

// Schedule gives every sendable flow its max-min fair share, or hands
// out the previous call's vector again when nothing it reads moved.
func (u *UCTCP) Schedule(snap *sched.Snapshot) *sched.RateVec {
	prev, stands := u.issued.Begin(snap)
	if same := u.slots.Same(snap.Active); stands && same {
		return prev
	}
	alloc := snap.Allocation()
	u.demands = u.demands[:0]
	u.flows = u.flows[:0]
	for _, c := range snap.Active {
		for _, f := range c.SendableFlows() {
			u.demands = append(u.demands, fabric.Demand{Src: f.Src, Dst: f.Dst})
			u.flows = append(u.flows, f)
		}
	}
	u.rates = snap.Fabric.MaxMinFairInto(u.rates[:0], u.demands)
	for i, f := range u.flows {
		if u.rates[i] > 0 {
			alloc.Set(f.Idx, u.rates[i])
			snap.Fabric.Allocate(f.Src, f.Dst, u.rates[i])
		}
	}
	u.issued.End(snap, alloc)
	return alloc
}
