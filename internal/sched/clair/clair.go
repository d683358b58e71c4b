// Package clair implements the clairvoyant ordering policies the paper
// uses to motivate contention-aware scheduling (§2.4, Fig. 3, Fig. 17):
//
//   - SCF  — Shortest CoFlow First, by total (static) CoFlow bytes;
//   - SRTF — Shortest Remaining Time First, by total remaining bytes;
//   - SJF-duration — shortest bottleneck duration first, the variant
//     Appendix A shows is sub-optimal;
//   - LWTF — Least Waiting Time First, by t·k: bottleneck duration t
//     times contention k, the spatially-aware key that outperforms
//     SCF/SRTF and prefigures LCoF.
//
// All four read ground-truth sizes (offline setting). Given the global
// order, allocation is strict priority with built-in work
// conservation: each flow of each CoFlow, in order, receives the
// residual min(egress, ingress) bandwidth on its path.
package clair

import (
	"cmp"
	"fmt"
	"slices"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// Policy selects the clairvoyant ordering key.
type Policy string

// The supported policies.
const (
	SCF         Policy = "scf"
	SRTF        Policy = "srtf"
	SJFDuration Policy = "sjf-duration"
	LWTF        Policy = "lwtf"
)

// Clair is a clairvoyant global-priority scheduler. The ordering
// scratch (key vector, order slice, Γ's per-port sums) is reused across
// intervals, and LWTF's contention comes from the incremental index.
type Clair struct {
	policy Policy
	cindex *sched.ContentionIndex
	gamma  sched.Bottleneck
	keys   []float64 // by CoFlow.Idx
	order  []*coflow.CoFlow
}

// New builds a clairvoyant scheduler for the given policy.
func New(policy Policy) (*Clair, error) {
	switch policy {
	case SCF, SRTF, SJFDuration, LWTF:
		return &Clair{policy: policy, cindex: sched.NewContentionIndex()}, nil
	default:
		return nil, fmt.Errorf("clair: unknown policy %q", policy)
	}
}

func init() {
	for _, p := range []Policy{SCF, SRTF, SJFDuration, LWTF} {
		policy := p
		sched.Register(string(policy), func(sched.Params) (sched.Scheduler, error) {
			return New(policy)
		})
	}
}

// Name implements sched.Scheduler.
func (c *Clair) Name() string { return string(c.policy) }

// Arrive implements sched.Scheduler.
func (c *Clair) Arrive(*coflow.CoFlow, coflow.Time) {}

// Depart implements sched.Scheduler.
func (c *Clair) Depart(*coflow.CoFlow, coflow.Time) {}

// Schedule orders the active CoFlows by the policy key (ties by ID)
// and allocates greedily in that order.
func (c *Clair) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := snap.Allocation()
	c.order = append(c.order[:0], snap.Active...)
	c.computeKeys(snap)
	slices.SortStableFunc(c.order, func(a, b *coflow.CoFlow) int {
		if ka, kb := c.keys[a.Idx], c.keys[b.Idx]; ka != kb {
			return cmp.Compare(ka, kb)
		}
		return cmp.Compare(a.ID(), b.ID())
	})

	const eps = 1e-3
	for _, cf := range c.order {
		for _, f := range cf.SendableFlows() {
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

// computeKeys fills the ordering key for every active CoFlow into the
// dense key vector.
func (c *Clair) computeKeys(snap *sched.Snapshot) {
	c.keys = coflow.Grow(c.keys, snap.CoFlowCap)
	rate := snap.Fabric.PortRate()
	if c.policy == LWTF {
		c.cindex.Sync(snap.Active)
	}
	for _, cf := range snap.Active {
		switch c.policy {
		case SCF:
			c.keys[cf.Idx] = float64(cf.Spec.TotalSize())
		case SRTF:
			c.keys[cf.Idx] = float64(cf.TotalRemaining())
		case SJFDuration:
			c.keys[cf.Idx] = c.gamma.Gamma(cf, rate).Seconds()
		case LWTF:
			t := c.gamma.Gamma(cf, rate).Seconds()
			c.keys[cf.Idx] = t * float64(c.cindex.K(cf))
		}
	}
}
