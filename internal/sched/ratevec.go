package sched

import (
	"fmt"

	"saath/internal/coflow"
)

// RateVec is the dense per-interval allocation vector: rates keyed by
// Flow.Idx. It replaces the map[FlowID]Rate allocation of earlier
// revisions so the steady-state scheduling tick performs zero heap
// allocations — one vector is reused across intervals (Snapshot.Alloc),
// cleared in O(1) by bumping an epoch stamp instead of wiping memory.
//
// Entries distinguish "set" from "zero": flows absent from the vector
// are paused, exactly as flows absent from the old map were. A nil
// *RateVec is a valid empty allocation for all read methods.
//
// A vector a Schedule call returned is read-only to its callers, and
// ContentStamp says whether that was honoured: Reset, Set and Add all
// move it, so a policy (and the engine) that finds the vector it last
// handed out under the stamp it last saw knows the contents are still
// the ones it wrote, and may hand them out again unrecomputed.
type RateVec struct {
	rates   []coflow.Rate
	stamp   []uint32
	epoch   uint32
	touched []int32 // indices set this epoch, in insertion order
	content uint64  // moved by every write: Reset, Set, Add
}

// NewRateVec returns a vector with capacity for flow indices [0, n).
// It grows on demand if written past n.
func NewRateVec(n int) *RateVec {
	return &RateVec{rates: make([]coflow.Rate, n), stamp: make([]uint32, n), epoch: 1}
}

// Reset clears the vector and ensures capacity for indices [0, n),
// without releasing memory: O(1) plus any growth.
func (v *RateVec) Reset(n int) {
	v.rates, v.stamp = coflow.Grow(v.rates, n), coflow.Grow(v.stamp, n)
	v.touched = v.touched[:0]
	v.content++
	v.epoch++
	if v.epoch == 0 { // epoch wrapped: stamps are ambiguous, wipe them
		clear(v.stamp)
		v.epoch = 1
	}
}

// Len returns the number of flows with a rate set this epoch.
func (v *RateVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.touched)
}

// ContentStamp returns a value every write to the vector moves. It only
// ever grows, so equal stamps on one vector mean equal contents.
func (v *RateVec) ContentStamp() uint64 {
	if v == nil {
		return 0
	}
	return v.content
}

// Get returns the rate set for flow index idx and whether one was set.
func (v *RateVec) Get(idx int) (coflow.Rate, bool) {
	if v == nil || idx < 0 || idx >= len(v.stamp) || v.stamp[idx] != v.epoch {
		return 0, false
	}
	return v.rates[idx], true
}

// Rate returns the rate set for flow index idx, or zero when unset.
func (v *RateVec) Rate(idx int) coflow.Rate {
	r, _ := v.Get(idx)
	return r
}

// Set assigns a rate to flow index idx, marking it present.
func (v *RateVec) Set(idx int, r coflow.Rate) {
	if idx < 0 {
		panic(fmt.Sprintf("sched: RateVec.Set on unindexed flow (idx %d)", idx))
	}
	if idx >= len(v.stamp) {
		v.rates, v.stamp = coflow.Grow(v.rates, idx+1), coflow.Grow(v.stamp, idx+1)
	}
	v.content++
	if v.stamp[idx] != v.epoch {
		v.stamp[idx] = v.epoch
		v.touched = append(v.touched, int32(idx))
		v.rates[idx] = r
		return
	}
	v.rates[idx] = r
}

// Add adds r to the rate of flow index idx, setting it if absent —
// the dense equivalent of the old `alloc[id] += r`.
func (v *RateVec) Add(idx int, r coflow.Rate) {
	if cur, ok := v.Get(idx); ok {
		v.rates[idx] = cur + r
		v.content++
		return
	}
	v.Set(idx, r)
}

// Range calls fn for every set entry in insertion order, stopping
// early if fn returns false.
func (v *RateVec) Range(fn func(idx int, r coflow.Rate) bool) {
	if v == nil {
		return
	}
	for _, idx := range v.touched {
		if !fn(int(idx), v.rates[idx]) {
			return
		}
	}
}

// Equal reports whether two allocations set the same flows to the
// same rates (insertion order is ignored).
func (v *RateVec) Equal(o *RateVec) bool {
	if v.Len() != o.Len() {
		return false
	}
	eq := true
	v.Range(func(idx int, r coflow.Rate) bool {
		or, ok := o.Get(idx)
		if !ok || or != r {
			eq = false
		}
		return eq
	})
	return eq
}
