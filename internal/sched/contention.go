package sched

import (
	"math/bits"

	"saath/internal/coflow"
)

// ContentionIndex computes k_c — the number of *other* CoFlows with a
// sendable flow on any port a CoFlow occupies (§3 idea 3) —
// incrementally, as port-occupancy bitsets. Every port direction owns
// one row of bits (slot 2·port for egress, 2·port+1 for ingress); bit i
// of a row is set while the CoFlow with Idx i has a sendable flow
// there. A CoFlow's bits are rewritten only when its mutation epoch
// changed (arrival, flow completion, availability flip) and cleared
// when it departs, and k_c is a popcount over the OR of its rows. On a
// steady-state tick Sync touches no memory beyond the live set and K
// allocates nothing.
//
// Values are exactly those of the map-based reference, Contention in
// contention_test.go, for the same active set; the equivalence is
// pinned by TestContentionIndexMatchesReference.
type ContentionIndex struct {
	words   int      // uint64s per row: rows cover CoFlow.Idx < 64·words
	rows    []uint64 // slot s is rows[s·words : (s+1)·words]
	acc     []uint64 // K's OR accumulator, one row long
	states  []cfOcc  // by CoFlow.Idx
	live    int      // states currently holding a CoFlow
	syncGen uint64
}

// cfOcc is the index's state for one CoFlow.Idx. The holder is
// compared by pointer, so an Idx released and handed to another CoFlow
// between two Syncs is seen as a departure plus an arrival.
type cfOcc struct {
	c     *coflow.CoFlow
	epoch uint64  // c.CacheEpoch when slots was last rewritten
	seen  uint64  // last Sync generation that listed c
	slots []int32 // the rows carrying this Idx's bit, each once
}

// NewContentionIndex returns an empty index.
func NewContentionIndex() *ContentionIndex { return &ContentionIndex{} }

// Sync reconciles the index with the current active set: new CoFlows
// are added, CoFlows whose mutation epoch changed are refreshed, and
// CoFlows that disappeared are dropped. Call once per interval before
// querying K.
//
//saath:hotpath
func (x *ContentionIndex) Sync(active []*coflow.CoFlow) {
	x.syncGen++
	for _, c := range active {
		if c.Idx >= len(x.states) {
			x.grow(c.Idx + 1)
		}
		st := &x.states[c.Idx]
		if st.c != c || st.epoch != c.CacheEpoch() {
			if st.c == nil {
				x.live++
			}
			st.c, st.epoch = c, c.CacheEpoch()
			x.setSlots(st, c.Idx, c.SendableFlows())
		}
		st.seen = x.syncGen
	}
	// Every listed CoFlow now holds a state, so a departure shows as a
	// surplus of held states — sweep only then.
	for i := 0; x.live > len(active) && i < len(x.states); i++ {
		if st := &x.states[i]; st.c != nil && st.seen != x.syncGen {
			x.setSlots(st, i, nil)
			st.c = nil
			x.live--
		}
	}
}

// grow makes room for CoFlow indices below n, re-striding the rows
// when they need more words.
//
//saath:alloc-ok amortized growth on arrival epochs, never at steady state
func (x *ContentionIndex) grow(n int) {
	for len(x.states) < n {
		x.states = append(x.states, cfOcc{})
	}
	if n <= 64*x.words {
		return
	}
	words := max(2*x.words, (n+63)/64)
	rows := make([]uint64, len(x.rows)/max(x.words, 1)*words)
	for s := 0; s*x.words < len(x.rows); s++ {
		copy(rows[s*words:], x.rows[s*x.words:(s+1)*x.words])
	}
	x.words, x.rows, x.acc = words, rows, make([]uint64, words)
}

// setSlots clears bit idx in the rows that carry it and sets it in the
// rows of both ends of every flow given.
func (x *ContentionIndex) setSlots(st *cfOcc, idx int, flows []*coflow.Flow) {
	word, bit := idx>>6, uint64(1)<<(idx&63)
	for _, s := range st.slots {
		x.rows[int(s)*x.words+word] &^= bit
	}
	st.slots = st.slots[:0]
	for _, f := range flows {
		for _, s := range [2]int{2 * int(f.Src), 2*int(f.Dst) + 1} {
			for len(x.rows) < (s+1)*x.words {
				x.rows = append(x.rows, 0)
			}
			if w := &x.rows[s*x.words+word]; *w&bit == 0 {
				*w |= bit
				st.slots = append(st.slots, int32(s))
			}
		}
	}
}

// K returns k_c for a CoFlow present in the last Sync (zero
// otherwise): the number of distinct other live CoFlows sharing at
// least one of its occupied port directions.
//
//saath:hotpath
func (x *ContentionIndex) K(c *coflow.CoFlow) int {
	if c.Idx < 0 || c.Idx >= len(x.states) || x.states[c.Idx].c != c {
		return 0
	}
	clear(x.acc)
	for _, s := range x.states[c.Idx].slots {
		for w, v := range x.rows[int(s)*x.words : (int(s)+1)*x.words] {
			x.acc[w] |= v
		}
	}
	k := 0
	for _, v := range x.acc {
		k += bits.OnesCount64(v)
	}
	return max(k-1, 0) // c's own bit is in every one of its rows
}
