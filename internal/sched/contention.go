package sched

import (
	"math/bits"

	"saath/internal/coflow"
)

// ContentionIndex keeps k_c — the number of *other* CoFlows with a
// sendable flow on any port a CoFlow occupies (§3 idea 3) — as a count
// per CoFlow, maintained pair by pair. Each CoFlow has one
// port-direction signature, a bitset with bit 2p set while it has a
// sendable flow leaving port p and bit 2p+1 while one enters port p;
// two CoFlows contend when their signatures intersect.
//
// Every live CoFlow — a member — holds a dense slot, the lowest one
// free, so departed members' slots are reused first. When a signature
// changes — the CoFlow arrives, departs, or its sendable set moves onto
// other ports — only the members whose signature has a direction that
// flipped (a bit of prev ^ next) can see their pair with it change: for
// any other member, intersecting the old signature and the new one is
// the same test. Sync visits those members and moves each one's count
// by one where the two tests differ, and the changed CoFlow's own count
// by the same steps, since the pair test is symmetric. An arrival is
// the change from the empty signature, a departure the change to it.
//
// To find those members, every port direction keeps its member set: a
// bitset over slots, with a member's bit set while its signature has
// that direction. The sets cost a write per flipped direction, which
// pays only when there are members to skip: they are kept while at
// least trackAt CoFlows are live, built from the signatures when the
// live set grows to that, and dropped when it shrinks below; with fewer
// members a change visits them all. An epoch move that leaves the
// signature as it was costs the pass over the sendable flows that
// rebuilt it, and K is a read. On a steady-state tick nothing
// allocates; slots, member sets and signatures grow, amortised, when
// the live set or the port range passes every earlier one.
//
// Values are exactly those of the map-based reference, Contention in
// contention_test.go, for the same active set; the equivalence is
// pinned by TestContentionIndexMatchesReference and
// FuzzContentionIndex.
type ContentionIndex struct {
	words   int      // uint64s per signature: signatures cover ports < 32·words
	sigs    []uint64 // Idx i's signature is sigs[i·words : (i+1)·words]
	scratch []uint64 // the signature being built, one signature long
	states  []cfOcc  // by CoFlow.Idx

	setWords int      // uint64s per slot bitset: they cover slots < 64·setWords
	dirs     []uint64 // direction d's member set is dirs[d·setWords : (d+1)·setWords], while tracked
	tracked  bool     // dirs hold the member sets: live >= trackAt
	held     []uint64 // the slots held, one slot bitset long
	touched  []uint64 // the members one change visits, one slot bitset long
	slots    []int32  // slot -> the Idx of the member holding it; -1 while free
	live     int      // members: slots held
	syncGen  uint64
}

// trackAt is the live-set size from which the index keeps the member
// sets. On the benchmark's workloads a changed signature flips a few
// directions (2.6 on dense-burst, 7.6 on sparse-longtail): keeping the
// sets costs that many writes on every change, where a visit to every
// member costs each member a test over its signature's words. With
// sparse-longtail's one or two live CoFlows the visit is the cheaper,
// and with dense-burst's 180 the sets are.
const trackAt = 16

// cfOcc is the index's state for one CoFlow.Idx. The holder is
// compared by pointer, so an Idx handed to another CoFlow between two
// Syncs — a departure and an arrival — is seen as a change of that
// Idx's signature, under the same slot.
type cfOcc struct {
	c      *coflow.CoFlow
	epoch  uint64 // c.CacheEpoch when the signature was last rebuilt
	seen   uint64 // last Sync generation that listed c
	k      int32  // live CoFlows other than c whose signature meets c's
	lo, hi int32  // the signature's nonzero words all lie in [lo, hi)
	slot   int32  // the member's slot, while c is set
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
	// Departures first, so the signatures rebuilt below meet only the
	// CoFlows still live. A departure shows as a member the active set
	// does not name — sweep the slots only while there is one.
	for s := len(x.slots) - 1; s >= 0 && x.live > listed; s-- {
		idx := int(x.slots[s])
		if idx < 0 || x.states[idx].seen == x.syncGen {
			continue
		}
		x.resign(idx, nil)
		x.leave(idx)
	}
	for _, c := range active {
		st := &x.states[c.Idx]
		if st.c == c && st.epoch == c.CacheEpoch() {
			continue
		}
		if st.c == nil {
			x.join(c.Idx)
		}
		st.c, st.epoch = c, c.CacheEpoch()
		x.resign(c.Idx, c.SendablePorts())
	}
}

// join gives Idx idx a slot — the lowest one free, or a new one — and
// builds the member sets when the live set grows to trackAt.
func (x *ContentionIndex) join(idx int) {
	s := len(x.slots)
	for i, h := range x.held {
		if h != ^uint64(0) {
			s = min(s, i*64+bits.TrailingZeros64(^h))
			break
		}
	}
	if s == len(x.slots) {
		if s >= 64*x.setWords {
			x.widen()
		}
		x.slots = append(x.slots, -1) // amortized growth when the live set passes every earlier one
	}
	x.slots[s] = int32(idx)
	x.held[s>>6] |= 1 << (s & 63)
	x.states[idx].slot = int32(s)
	if x.live++; x.live == trackAt {
		x.track()
	}
}

// leave frees the slot of member idx, whose signature resign has
// emptied, and drops the member sets when the live set shrinks below
// trackAt.
func (x *ContentionIndex) leave(idx int) {
	s := x.states[idx].slot
	x.slots[s] = -1
	x.held[s>>6] &^= 1 << (s & 63)
	x.states[idx] = cfOcc{}
	if x.live--; x.live == trackAt-1 {
		x.tracked = false
	}
}

// track builds every direction's member set from the members'
// signatures.
func (x *ContentionIndex) track() {
	if n := 64 * x.words * x.setWords; len(x.dirs) != n {
		x.dirs = make([]uint64, n)
	} else {
		clear(x.dirs)
	}
	for s, idx := range x.slots {
		if idx < 0 {
			continue
		}
		st, sig := &x.states[idx], x.sigs[int(idx)*x.words:]
		for w := st.lo; w < st.hi; w++ {
			for d := sig[w]; d != 0; d &= d - 1 {
				x.dirs[(int(w)*64+bits.TrailingZeros64(d))*x.setWords+s>>6] |= 1 << (s & 63)
			}
		}
	}
	x.tracked = true
}

// grow makes room for CoFlow indices below n.
func (x *ContentionIndex) grow(n int) {
	x.states = coflow.Grow(x.states, n)
	x.sigs = coflow.Grow(x.sigs, n*x.words)
}

// widen doubles the slots every slot bitset covers.
func (x *ContentionIndex) widen() {
	sw := max(2*x.setWords, 1)
	if x.tracked {
		dirs := make([]uint64, 64*x.words*sw)
		for d := 0; d < 64*x.words; d++ {
			copy(dirs[d*sw:], x.dirs[d*x.setWords:(d+1)*x.setWords])
		}
		x.dirs = dirs
	}
	held := make([]uint64, sw)
	copy(held, x.held)
	x.setWords, x.held, x.touched = sw, held, make([]uint64, sw)
}

// restride widens every signature to cover bit b, and, while the member
// sets are kept, gives each new direction an empty one.
func (x *ContentionIndex) restride(b int) {
	words := max(2*x.words, b/64+1)
	sigs := make([]uint64, len(x.states)*words)
	for i := range x.states {
		copy(sigs[i*words:], x.sigs[i*x.words:(i+1)*x.words])
	}
	scratch := make([]uint64, words)
	copy(scratch, x.scratch)
	if x.tracked {
		dirs := make([]uint64, 64*words*x.setWords)
		copy(dirs, x.dirs)
		x.dirs = dirs
	}
	x.words, x.sigs, x.scratch = words, sigs, scratch
}

// resign gives member idx the signature of the sendable flows at ports
// and brings every count it enters up to date: those of the members
// whose signature has a direction that flipped, by the pair each forms
// with idx, and idx's own by the same steps.
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
	// The members to visit: those in the member sets of the flipped
	// directions, which idx moves into or out of on the way, or, with
	// the sets not kept, every member.
	sw, own := x.setWords, int(st.slot)
	visit, bit := x.held, uint64(1)<<(own&63)
	if x.tracked {
		visit = x.touched
		for w := ulo; w < uhi; w++ {
			for d := prev[w] ^ next[w]; d != 0; d &= d - 1 {
				at := (int(w)*64 + bits.TrailingZeros64(d)) * sw
				set := x.dirs[at : at+sw]
				for i, m := range set {
					visit[i] |= m
				}
				set[own>>6] ^= bit
			}
		}
	}
	k := st.k
	for i, t := range visit {
		if i == own>>6 {
			t &^= bit
		}
		for ; t != 0; t &= t - 1 {
			j := int(x.slots[i*64+bits.TrailingZeros64(t)])
			o := &x.states[j]
			sig := x.sigs[j*x.words:]
			var before, after uint64
			for w := max(ulo, o.lo); w < min(uhi, o.hi); w++ {
				before |= sig[w] & prev[w]
				after |= sig[w] & next[w]
			}
			switch {
			case before == 0 && after != 0:
				o.k++
				k++
			case before != 0 && after == 0:
				o.k--
				k--
			}
		}
		x.touched[i] = 0
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
