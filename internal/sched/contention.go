package sched

import (
	"saath/internal/coflow"
)

// ContentionIndex keeps k_c — the number of *other* CoFlows with a
// sendable flow on any port a CoFlow occupies (§3 idea 3) — as a count
// per CoFlow, maintained pair by pair. Each CoFlow has one
// port-direction signature, a bitset with bit 2p set while it has a
// sendable flow leaving port p and bit 2p+1 while one enters port p;
// two CoFlows contend when their signatures intersect. When a
// signature changes — the CoFlow arrives, departs, or its sendable set
// moves onto other ports — Sync walks the other live CoFlows once and
// moves each one's count by one where intersecting the old signature
// and intersecting the new one differ; the changed CoFlow's own count
// is the number it intersects now. An epoch move that leaves the
// signature as it was costs the pass over the sendable flows that
// rebuilt it, and K is a read. On a steady-state tick Sync touches no
// memory beyond the live set and nothing allocates.
//
// Values are exactly those of the map-based reference, Contention in
// contention_test.go, for the same active set; the equivalence is
// pinned by TestContentionIndexMatchesReference.
type ContentionIndex struct {
	words   int      // uint64s per signature: signatures cover ports < 32·words
	sigs    []uint64 // Idx i's signature is sigs[i·words : (i+1)·words]
	scratch []uint64 // the signature being built, one signature long
	states  []cfOcc  // by CoFlow.Idx
	members []int32  // the Idx of every state holding a CoFlow, in no order
	syncGen uint64
}

// cfOcc is the index's state for one CoFlow.Idx. The holder is
// compared by pointer, so an Idx handed to another CoFlow between two
// Syncs — a departure and an arrival, or the coordinator's update()
// swap — is seen as a change of that Idx's signature.
type cfOcc struct {
	c      *coflow.CoFlow
	epoch  uint64 // c.CacheEpoch when the signature was last rebuilt
	seen   uint64 // last Sync generation that listed c
	k      int32  // live CoFlows other than c whose signature meets c's
	lo, hi int32  // the signature's nonzero words all lie in [lo, hi)
}

// NewContentionIndex returns an empty index.
func NewContentionIndex() *ContentionIndex { return &ContentionIndex{} }

// Sync reconciles the index with the current active set: CoFlows that
// disappeared are dropped, and new CoFlows and those whose mutation
// epoch changed get their signature rebuilt. Call once per interval
// before querying K or Signature.
//
//saath:hotpath
func (x *ContentionIndex) Sync(active []*coflow.CoFlow) {
	x.syncGen++
	listed := 0 // members the active set names
	for _, c := range active {
		if c.Idx >= len(x.states) {
			x.grow(c.Idx + 1)
		}
		st := &x.states[c.Idx]
		st.seen = x.syncGen
		if st.c != nil {
			listed++
		}
	}
	// Departures first, so the signatures rebuilt below walk only the
	// CoFlows still live. A departure shows as a member the active set
	// does not name — sweep only while there is one. Removal moves the
	// last member into the hole, which the backward walk has passed.
	for i := len(x.members) - 1; i >= 0 && len(x.members) > listed; i-- {
		idx := int(x.members[i])
		if x.states[idx].seen == x.syncGen {
			continue
		}
		x.resign(idx, nil)
		x.members[i] = x.members[len(x.members)-1]
		x.members = x.members[:len(x.members)-1]
		x.states[idx] = cfOcc{}
	}
	for _, c := range active {
		st := &x.states[c.Idx]
		if st.c == c && st.epoch == c.CacheEpoch() {
			continue
		}
		if st.c == nil {
			x.members = append(x.members, int32(c.Idx))
		}
		st.c, st.epoch = c, c.CacheEpoch()
		x.resign(c.Idx, c.SendablePorts())
	}
}

// grow makes room for CoFlow indices below n.
//
//saath:alloc-ok amortized growth on arrival epochs, never at steady state
func (x *ContentionIndex) grow(n int) {
	for len(x.states) < n {
		x.states = append(x.states, cfOcc{})
	}
	for len(x.sigs) < n*x.words {
		x.sigs = append(x.sigs, 0)
	}
}

// restride widens every signature to cover bit b.
//
//saath:alloc-ok amortized growth when a port beyond every earlier one shows up
func (x *ContentionIndex) restride(b int) {
	words := max(2*x.words, b/64+1)
	sigs := make([]uint64, len(x.states)*words)
	for i := range x.states {
		copy(sigs[i*words:], x.sigs[i*x.words:(i+1)*x.words])
	}
	scratch := make([]uint64, words)
	copy(scratch, x.scratch)
	x.words, x.sigs, x.scratch = words, sigs, scratch
}

// resign gives Idx idx the signature of the sendable flows at ports
// and brings every count it enters up to date: the other members' by the
// pair they form with idx, and idx's own from scratch.
func (x *ContentionIndex) resign(idx int, ports []coflow.PortPair) {
	clear(x.scratch)
	for _, p := range ports {
		eg, in := 2*int(p.Src), 2*int(p.Dst)+1
		if b := max(eg, in); b >= 64*x.words {
			x.restride(b)
		}
		x.scratch[eg>>6] |= 1 << (eg & 63)
		x.scratch[in>>6] |= 1 << (in & 63)
	}
	next := x.scratch
	lo, hi := int32(0), int32(0)
	for w, v := range next {
		if v != 0 {
			if hi == 0 {
				lo = int32(w)
			}
			hi = int32(w + 1)
		}
	}
	st := &x.states[idx]
	prev := x.sigs[idx*x.words : (idx+1)*x.words]
	// The words either signature has bits in; empty ranges take no part.
	ulo, uhi := lo, hi
	if hi == 0 {
		ulo, uhi = st.lo, st.hi
	} else if st.hi != 0 {
		ulo, uhi = min(lo, st.lo), max(hi, st.hi)
	}
	same := true
	for w := ulo; w < uhi && same; w++ {
		same = prev[w] == next[w]
	}
	if same {
		return
	}
	k := int32(0)
	for _, j := range x.members {
		o := &x.states[j]
		if int(j) == idx {
			continue
		}
		sig := x.sigs[int(j)*x.words:]
		var before, after uint64
		for w := max(ulo, o.lo); w < min(uhi, o.hi); w++ {
			before |= sig[w] & prev[w]
			after |= sig[w] & next[w]
		}
		if after != 0 {
			k++
		}
		switch {
		case before == 0 && after != 0:
			o.k++
		case before != 0 && after == 0:
			o.k--
		}
	}
	copy(prev, next)
	st.k, st.lo, st.hi = k, lo, hi
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
	return int(x.states[c.Idx].k)
}

// Signature returns the port-direction signature of a CoFlow present in
// the last Sync — bit 2p for egress p, bit 2p+1 for ingress p, trailing
// zero words trimmed — and nil for any other. The words are the index's
// own: read them before the next Sync.
//
//saath:hotpath
func (x *ContentionIndex) Signature(c *coflow.CoFlow) []uint64 {
	if c.Idx < 0 || c.Idx >= len(x.states) || x.states[c.Idx].c != c {
		return nil
	}
	return x.sigs[c.Idx*x.words : c.Idx*x.words+int(x.states[c.Idx].hi)]
}
