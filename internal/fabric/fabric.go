// Package fabric models the paper's network substrate: a full-bisection
// "big switch" datacenter fabric in which congestion occurs only at the
// node ports (§6 Setup). Every node owns one egress (sender) port and
// one ingress (receiver) port of equal capacity, 1 Gbps by default.
//
// The Fabric tracks residual capacity as a scheduler hands out rates;
// package-level helpers implement max-min fair water-filling, used by
// the UC-TCP baseline and by work conservation.
package fabric

import (
	"fmt"

	"saath/internal/coflow"
)

// DefaultPortRate is the per-port line rate used throughout the paper.
var DefaultPortRate = coflow.GbpsRate(1)

// Fabric is the residual-capacity ledger for one scheduling round.
// It is not safe for concurrent use; the coordinator owns it.
type Fabric struct {
	numPorts    int
	portRate    coflow.Rate
	egressFree  []coflow.Rate // residual per sender port
	ingressFree []coflow.Rate // residual per receiver port
	drawn       bool          // Allocate ran since the last Reset
	// open has bit 2p set while egress p has more than openEps of
	// residual and bit 2p+1 while ingress p does: the port-direction
	// layout of sched.ContentionIndex's signatures, for OpenEnds.
	open []uint64

	// EqualRateForCoFlow's per-port flow counts, all zero between calls.
	useEgress  []int32
	useIngress []int32

	// MaxMinFairInto working state, reused across scheduling rounds so
	// progressive filling stays off the heap.
	mmEgress  []coflow.Rate
	mmIngress []coflow.Rate
	mmEgCount []int
	mmInCount []int
	mmActive  []bool
}

// New creates a fabric of numPorts nodes with the given per-port rate.
func New(numPorts int, rate coflow.Rate) *Fabric {
	if numPorts <= 0 {
		panic(fmt.Sprintf("fabric.New: numPorts=%d", numPorts))
	}
	if rate <= 0 {
		panic(fmt.Sprintf("fabric.New: rate=%v", rate))
	}
	f := &Fabric{
		numPorts:    numPorts,
		portRate:    rate,
		egressFree:  make([]coflow.Rate, numPorts),
		ingressFree: make([]coflow.Rate, numPorts),
		useEgress:   make([]int32, numPorts),
		useIngress:  make([]int32, numPorts),
		open:        make([]uint64, (2*numPorts+63)/64),
		drawn:       true, // nothing is at line rate until the Reset below
	}
	f.Reset()
	return f
}

// NumPorts returns the node count.
func (f *Fabric) NumPorts() int { return f.numPorts }

// PortRate returns the per-port line rate.
func (f *Fabric) PortRate() coflow.Rate { return f.portRate }

// openEps is the residual at or below which a port is busy to work
// conservation (and so closed in the open bitset): 1 mB/s.
const openEps = 1e-3

// Reset restores full capacity at every port, starting a new round. A
// fabric nothing drew from since the last Reset is left as it is.
//
//saath:hotpath
func (f *Fabric) Reset() {
	if !f.drawn {
		return
	}
	for i := range f.egressFree {
		f.egressFree[i] = f.portRate
		f.ingressFree[i] = f.portRate
	}
	for w := range f.open {
		f.open[w] = ^uint64(0)
	}
	if tail := 2 * f.numPorts % 64; tail != 0 {
		f.open[len(f.open)-1] = 1<<tail - 1
	}
	f.drawn = false
}

// Full reports whether every port is at line rate because nothing was
// allocated since the last Reset — what a scheduler is handed at the
// start of a round.
func (f *Fabric) Full() bool { return !f.drawn }

// EgressFree returns residual sender-side capacity at port p.
func (f *Fabric) EgressFree(p coflow.PortID) coflow.Rate { return f.egressFree[p] }

// IngressFree returns residual receiver-side capacity at port p.
func (f *Fabric) IngressFree(p coflow.PortID) coflow.Rate { return f.ingressFree[p] }

// PathFree returns the rate available to one flow from src to dst: the
// minimum of residual egress at src and residual ingress at dst.
func (f *Fabric) PathFree(src, dst coflow.PortID) coflow.Rate {
	e, i := f.egressFree[src], f.ingressFree[dst]
	if e < i {
		return e
	}
	return i
}

// Allocate reserves rate r on the src→dst path. It panics if the
// reservation exceeds residual capacity beyond a tiny floating-point
// tolerance — schedulers must never oversubscribe ports.
//
//saath:hotpath
func (f *Fabric) Allocate(src, dst coflow.PortID, r coflow.Rate) {
	if r < 0 {
		panic(fmt.Sprintf("fabric: negative allocation %v", r))
	}
	const tol = 1e-6
	if r > f.egressFree[src]+coflow.Rate(tol*float64(f.portRate)) {
		panic(fmt.Sprintf("fabric: egress port %d oversubscribed: want %v, free %v", src, r, f.egressFree[src]))
	}
	if r > f.ingressFree[dst]+coflow.Rate(tol*float64(f.portRate)) {
		panic(fmt.Sprintf("fabric: ingress port %d oversubscribed: want %v, free %v", dst, r, f.ingressFree[dst]))
	}
	f.drawn = true
	f.egressFree[src] -= r
	f.ingressFree[dst] -= r
	if f.egressFree[src] < 0 {
		f.egressFree[src] = 0
	}
	if f.ingressFree[dst] < 0 {
		f.ingressFree[dst] = 0
	}
	f.mark(src, f.egressFree[src], 0)
	f.mark(dst, f.ingressFree[dst], 1)
}

// Release returns rate r to the src→dst path, clamped at line rate.
//
//saath:hotpath
func (f *Fabric) Release(src, dst coflow.PortID, r coflow.Rate) {
	if r < 0 {
		panic(fmt.Sprintf("fabric: negative release %v", r))
	}
	f.egressFree[src] += r
	f.ingressFree[dst] += r
	if f.egressFree[src] > f.portRate {
		f.egressFree[src] = f.portRate
	}
	if f.ingressFree[dst] > f.portRate {
		f.ingressFree[dst] = f.portRate
	}
	f.mark(src, f.egressFree[src], 0)
	f.mark(dst, f.ingressFree[dst], 1)
}

// mark sets port p's bit for one direction (0 egress, 1 ingress) in the
// open bitset to whether residual free is above openEps.
func (f *Fabric) mark(p coflow.PortID, free coflow.Rate, dir int) {
	w, bit := p>>5, uint64(1)<<(2*(p&31)+coflow.PortID(dir))
	if float64(free) > openEps {
		f.open[w] |= bit
	} else {
		f.open[w] &^= bit
	}
}

// OpenEnds reports whether a port-direction signature — bit 2p for
// egress p, bit 2p+1 for ingress p, as sched.ContentionIndex builds
// them — names an open egress port and an open ingress port. A CoFlow
// whose signature fails it can get nothing from work conservation now
// or later in the round: every flow's PathFree is at most the residual
// at either end, and residuals only fall until the next Reset.
//
//saath:hotpath
func (f *Fabric) OpenEnds(sig []uint64) bool {
	const egress = 0x5555555555555555 // the even bits
	var eg, in uint64
	for w, v := range sig[:min(len(sig), len(f.open))] {
		v &= f.open[w]
		eg |= v & egress
		in |= v &^ egress
	}
	return eg != 0 && in != 0
}

// CoFlowAvailable reports whether every port a CoFlow's sendable flows
// touch has strictly positive residual capacity — the all-or-none
// admission test (Fig. 7 line 7).
//
//saath:hotpath
func (f *Fabric) CoFlowAvailable(c *coflow.CoFlow) bool {
	const eps = 1e-3 // below 1 mB/s a port is effectively busy
	for _, fl := range c.SendableFlows() {
		if float64(f.egressFree[fl.Src]) < eps || float64(f.ingressFree[fl.Dst]) < eps {
			return false
		}
	}
	return true
}

// EqualRateForCoFlow computes the MADD-style equal per-flow rate for a
// CoFlow (§4.2 D2): the slowest flow's achievable share governs all
// flows, where each port's residual capacity is divided by the number
// of the CoFlow's sendable flows at that port. The per-port counts live
// in fabric-owned scratch that is zero outside this call; each port's
// share is taken (and its count cleared) the first time a flow reaches
// it, and a minimum does not depend on the order it is taken in.
//
//saath:hotpath
func (f *Fabric) EqualRateForCoFlow(c *coflow.CoFlow) coflow.Rate {
	flows := c.SendableFlows()
	for _, fl := range flows {
		f.useEgress[fl.Src]++
		f.useIngress[fl.Dst]++
	}
	rate := f.portRate
	for _, fl := range flows {
		if n := f.useEgress[fl.Src]; n > 0 {
			f.useEgress[fl.Src] = 0
			if share := f.egressFree[fl.Src] / coflow.Rate(n); share < rate {
				rate = share
			}
		}
		if n := f.useIngress[fl.Dst]; n > 0 {
			f.useIngress[fl.Dst] = 0
			if share := f.ingressFree[fl.Dst] / coflow.Rate(n); share < rate {
				rate = share
			}
		}
	}
	if rate < 0 {
		rate = 0
	}
	return rate
}
