// Package fabric models the paper's network substrate: a full-bisection
// "big switch" datacenter fabric in which congestion occurs only at the
// node ports (§6 Setup). Every node owns one egress (sender) port and
// one ingress (receiver) port of equal capacity, 1 Gbps by default.
//
// The Fabric tracks residual capacity as a scheduler hands out rates,
// and computes max-min fair water-filling over it (MaxMinFairInto), used
// by the UC-TCP baseline and by Varys' backfill. A filling round costs
// its active demands' residual updates plus the ports and capped demands
// still in play, not a walk over every demand: each demand's rate is the
// running sum of levels when it froze, and a saturated port freezes the
// demands listed under it. FuzzMaxMinFair holds it, bit for bit, to the
// round-by-round walk it replaced.
package fabric

import (
	"fmt"
	"math/bits"

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
	// open has bit 2p set while egress p has more than openEps of
	// residual and bit 2p+1 while ingress p does: the port-direction
	// layout of sched.ContentionIndex's signatures, for OpenEnds and
	// SignatureAvailable.
	open []uint64
	// drawn has, in open's layout, the bit of every port direction that
	// Allocate or Release touched since the last Reset: every direction
	// below line rate is marked, and Reset restores the marked ones only.
	drawn []uint64

	// EqualRateForCoFlow's per-port flow counts, all zero between calls.
	useEgress  []int32
	useIngress []int32

	// MaxMinFairInto's working state, reused across calls.
	mm maxMinScratch
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
		drawn:       make([]uint64, (2*numPorts+63)/64),
	}
	for w := range f.drawn { // nothing is at line rate until the Reset below
		f.drawn[w] = ^uint64(0)
	}
	if tail := 2 * numPorts % 64; tail != 0 {
		f.drawn[len(f.drawn)-1] = 1<<tail - 1
	}
	f.Reset()
	return f
}

// NumPorts returns the node count.
func (f *Fabric) NumPorts() int { return f.numPorts }

// PortRate returns the per-port line rate.
func (f *Fabric) PortRate() coflow.Rate { return f.portRate }

// egressBits has the even bits of a port-direction word set: the egress
// directions, in the layout of open and drawn.
const egressBits = 0x5555555555555555

// openEps is the residual at or below which a port is busy to work
// conservation (and so closed in the open bitset), and below which it is
// busy to all-or-none admission: 1 mB/s.
const openEps = 1e-3

// Reset restores full capacity at every port, starting a new round. A
// round costs the port directions it drew from and one word per 32
// ports, not NumPorts.
//
//saath:hotpath
func (f *Fabric) Reset() {
	for w, v := range f.drawn {
		if v == 0 {
			continue
		}
		f.drawn[w] = 0
		f.open[w] |= v
		for e := v & egressBits; e != 0; e &= e - 1 {
			f.egressFree[w<<5|bits.TrailingZeros64(e)>>1] = f.portRate
		}
		for i := v >> 1 & egressBits; i != 0; i &= i - 1 {
			f.ingressFree[w<<5|bits.TrailingZeros64(i)>>1] = f.portRate
		}
	}
}

// Full reports whether every port is at line rate because nothing was
// allocated or released since the last Reset — what a scheduler is
// handed at the start of a round.
func (f *Fabric) Full() bool {
	for _, v := range f.drawn {
		if v != 0 {
			return false
		}
	}
	return true
}

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
	e, i := f.egressFree[src], f.ingressFree[dst]
	if r > e+coflow.Rate(tol*float64(f.portRate)) {
		panic(fmt.Sprintf("fabric: egress port %d oversubscribed: want %v, free %v", src, r, e))
	}
	if r > i+coflow.Rate(tol*float64(f.portRate)) {
		panic(fmt.Sprintf("fabric: ingress port %d oversubscribed: want %v, free %v", dst, r, i))
	}
	e, i = e-r, i-r
	if e < 0 {
		e = 0
	}
	if i < 0 {
		i = 0
	}
	f.egressFree[src], f.ingressFree[dst] = e, i
	f.mark(src, e, 0)
	f.mark(dst, i, 1)
}

// Release returns rate r to the src→dst path, clamped at line rate.
// No policy calls it: tests use it to leave a path a given residual.
func (f *Fabric) Release(src, dst coflow.PortID, r coflow.Rate) {
	if r < 0 {
		panic(fmt.Sprintf("fabric: negative release %v", r))
	}
	e, i := f.egressFree[src]+r, f.ingressFree[dst]+r
	if e > f.portRate {
		e = f.portRate
	}
	if i > f.portRate {
		i = f.portRate
	}
	f.egressFree[src], f.ingressFree[dst] = e, i
	f.mark(src, e, 0)
	f.mark(dst, i, 1)
}

// mark sets port p's bit for one direction (0 egress, 1 ingress) in the
// open bitset to whether residual free is above openEps, and in drawn.
func (f *Fabric) mark(p coflow.PortID, free coflow.Rate, dir int) {
	w, bit := p>>5, uint64(1)<<(2*(p&31)+coflow.PortID(dir))
	f.drawn[w] |= bit
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
	var eg, in uint64
	for w, v := range sig[:min(len(sig), len(f.open))] {
		v &= f.open[w]
		eg |= v & egressBits
		in |= v &^ egressBits
	}
	return eg != 0 && in != 0
}

// SignatureAvailable reports whether every port direction of a
// signature, in OpenEnds' layout, has at least openEps of residual: the
// all-or-none admission test (Fig. 7 line 7) over the ports a CoFlow's
// sendable flows touch, read from the CoFlow's sched.ContentionIndex
// signature rather than from its flows. A direction in the open bitset
// admits without a look at its residual; only one outside it is looked
// up, because open means above openEps and admission refuses only below
// it, so a residual of exactly openEps is closed to work conservation
// yet admits. A signature shorter than open leaves the ports past it
// unasked; one naming a port beyond the fabric panics, as asking its
// residual would.
//
//saath:hotpath
func (f *Fabric) SignatureAvailable(sig []uint64) bool {
	for w, v := range sig {
		if w < len(f.open) {
			v &^= f.open[w]
		}
		for ; v != 0; v &= v - 1 {
			b := bits.TrailingZeros64(v)
			free := f.egressFree
			if b&1 != 0 {
				free = f.ingressFree
			}
			if float64(free[w<<5|b>>1]) < openEps {
				return false
			}
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
	ports := c.SendablePorts()
	for _, p := range ports {
		f.useEgress[p.Src]++
		f.useIngress[p.Dst]++
	}
	rate := f.portRate
	for _, p := range ports {
		if n := f.useEgress[p.Src]; n > 0 {
			f.useEgress[p.Src] = 0
			if share := f.egressFree[p.Src] / coflow.Rate(n); share < rate {
				rate = share
			}
		}
		if n := f.useIngress[p.Dst]; n > 0 {
			f.useIngress[p.Dst] = 0
			if share := f.ingressFree[p.Dst] / coflow.Rate(n); share < rate {
				rate = share
			}
		}
	}
	if rate < 0 {
		rate = 0
	}
	return rate
}
