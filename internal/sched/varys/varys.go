// Package varys reimplements Varys' SEBF+MADD scheduling (Chowdhury,
// Zhong & Stoica, SIGCOMM 2014) as the paper's clairvoyant baseline.
//
// SEBF (Smallest Effective Bottleneck First) admits CoFlows in order
// of Γ, the completion time of the CoFlow's bottleneck port if run at
// full line rate; MADD (Minimum Allocation for Desired Duration) then
// paces every flow so that all finish together at Γ, wasting no
// bandwidth on flows that would only wait for the bottleneck. Leftover
// bandwidth is backfilled max-min fairly (work conservation).
//
// Varys is offline: it reads ground-truth flow sizes, which online
// schedulers like Saath and Aalo never see.
package varys

import (
	"cmp"
	"slices"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// Varys is the clairvoyant SEBF+MADD scheduler. The Γ key vector, the
// per-port accumulation arrays and the backfill scratch are reused
// across intervals so scheduling stays off the heap.
type Varys struct {
	gammas    []coflow.Time // SEBF key by CoFlow.Idx
	gamma     sched.Bottleneck
	order     []*coflow.CoFlow
	leftovers []*coflow.CoFlow

	// MADD's rate demand per port direction (sized to the fabric) plus
	// the list of directions touched, for O(touched) clearing.
	portNeed []coflow.Rate
	touched  []int32

	rates   []coflow.Rate
	demands []fabric.Demand
	flows   []*coflow.Flow
	mmRates []coflow.Rate
}

// New builds a Varys scheduler. Params carry no Varys knobs (it has no
// queues), but the signature matches the registry factory.
func New(p sched.Params) (*Varys, error) { return &Varys{}, nil }

func init() {
	sched.Register("varys", func(p sched.Params) (sched.Scheduler, error) { return New(p) })
}

// Name implements sched.Scheduler.
func (v *Varys) Name() string { return "varys" }

// Arrive implements sched.Scheduler.
func (v *Varys) Arrive(c *coflow.CoFlow, now coflow.Time) {}

// Depart implements sched.Scheduler.
func (v *Varys) Depart(c *coflow.CoFlow, now coflow.Time) {}

// portSlot maps one direction of one port onto the dense accumulator
// arrays: egress ports occupy [0, numPorts), ingress [numPorts, 2n).
func portSlot(p coflow.PortID, ingress bool, numPorts int) int {
	if ingress {
		return numPorts + int(p)
	}
	return int(p)
}

// Schedule admits CoFlows in SEBF order with MADD rates, then
// backfills residual capacity max-min fairly across unscheduled flows.
func (v *Varys) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := snap.Allocation()
	fab := snap.Fabric
	if np := fab.NumPorts(); len(v.portNeed) < 2*np {
		v.portNeed = make([]coflow.Rate, 2*np)
	}
	v.gammas = coflow.Grow(v.gammas, snap.CoFlowCap)
	rate := fab.PortRate()
	v.order = append(v.order[:0], snap.Active...)
	for _, c := range v.order {
		v.gammas[c.Idx] = v.gamma.Gamma(c, rate)
	}
	// SEBF order: ascending Γ, ties by ID.
	slices.SortStableFunc(v.order, func(a, b *coflow.CoFlow) int {
		if ga, gb := v.gammas[a.Idx], v.gammas[b.Idx]; ga != gb {
			return cmp.Compare(ga, gb)
		}
		return cmp.Compare(a.ID(), b.ID())
	})

	v.leftovers = v.leftovers[:0]
	for _, c := range v.order {
		if !v.admitMADD(fab, c, v.gammas[c.Idx], alloc) {
			v.leftovers = append(v.leftovers, c)
		}
	}

	// Work conservation: the remaining flows share residual capacity
	// max-min fairly, mirroring Varys' backfilling.
	v.demands = v.demands[:0]
	v.flows = v.flows[:0]
	for _, c := range v.leftovers {
		for _, f := range c.SendableFlows() {
			v.demands = append(v.demands, fabric.Demand{Src: f.Src, Dst: f.Dst})
			v.flows = append(v.flows, f)
		}
	}
	if len(v.demands) > 0 {
		v.mmRates = fab.MaxMinFairInto(v.mmRates[:0], v.demands)
		for i, f := range v.flows {
			if v.mmRates[i] > 0 {
				alloc.Add(f.Idx, v.mmRates[i])
				fab.Allocate(f.Src, f.Dst, v.mmRates[i])
			}
		}
	}
	return alloc
}

// admitMADD tries to reserve MADD rates for c: every flow paced to
// finish at the CoFlow's current bottleneck time Γ (precomputed by the
// caller). Admission is all-or-nothing per CoFlow, as in Varys.
func (v *Varys) admitMADD(fab *fabric.Fabric, c *coflow.CoFlow, gamma coflow.Time, alloc *sched.RateVec) bool {
	secs := gamma.Seconds()
	if secs <= 0 {
		return false
	}
	flows := c.SendableFlows()
	if len(flows) == 0 {
		return false
	}
	np := fab.NumPorts()
	v.rates = v.rates[:0]
	v.touched = v.touched[:0]
	for _, f := range flows {
		r := coflow.Rate(float64(f.Remaining()) / secs)
		v.rates = append(v.rates, r)
		for _, slot := range [2]int{portSlot(f.Src, false, np), portSlot(f.Dst, true, np)} {
			if v.portNeed[slot] == 0 {
				v.touched = append(v.touched, int32(slot))
			}
			v.portNeed[slot] += r
		}
	}
	const tol = 1.000001 // float slack on feasibility
	feasible := true
	for _, slot := range v.touched {
		need := v.portNeed[slot]
		var free coflow.Rate
		if int(slot) < np {
			free = fab.EgressFree(coflow.PortID(slot))
		} else {
			free = fab.IngressFree(coflow.PortID(int(slot) - np))
		}
		if float64(need) > float64(free)*tol {
			feasible = false
		}
		v.portNeed[slot] = 0
	}
	if !feasible {
		return false
	}
	for i, f := range flows {
		r := v.rates[i]
		if r <= 0 {
			continue
		}
		if free := fab.PathFree(f.Src, f.Dst); r > free {
			r = free // shave float overshoot
		}
		alloc.Set(f.Idx, r)
		fab.Allocate(f.Src, f.Dst, r)
	}
	return true
}
