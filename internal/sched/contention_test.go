package sched

import (
	"math/rand"
	"slices"
	"testing"

	"saath/internal/coflow"
)

// Contention is the reference k_c: rebuild the port occupancy of the
// whole active set in maps and count, for every CoFlow, the *other*
// CoFlows with at least one sendable flow on any port (sender egress or
// receiver ingress) its sendable flows occupy (§3 idea 3). Nothing
// ships it; ContentionIndex is held to it by
// TestContentionIndexMatchesReference.
func Contention(active []*coflow.CoFlow) map[coflow.CoFlowID]int {
	// Port occupancy: which coflows touch each egress/ingress port.
	type portKey struct {
		p       coflow.PortID
		ingress bool
	}
	occupancy := make(map[portKey][]coflow.CoFlowID)
	for _, c := range active {
		seen := make(map[portKey]bool)
		for _, f := range c.Flows {
			if !f.Sendable() {
				continue
			}
			for _, k := range [2]portKey{{f.Src, false}, {f.Dst, true}} {
				if !seen[k] {
					seen[k] = true
					occupancy[k] = append(occupancy[k], c.ID())
				}
			}
		}
	}
	out := make(map[coflow.CoFlowID]int, len(active))
	for _, c := range active {
		blocked := make(map[coflow.CoFlowID]bool)
		counted := make(map[portKey]bool)
		for _, f := range c.Flows {
			if !f.Sendable() {
				continue
			}
			for _, k := range [2]portKey{{f.Src, false}, {f.Dst, true}} {
				if counted[k] {
					continue
				}
				counted[k] = true
				for _, id := range occupancy[k] {
					if id != c.ID() {
						blocked[id] = true
					}
				}
			}
		}
		out[c.ID()] = len(blocked)
	}
	return out
}

// kOf runs one Sync+query round over active.
func kOf(x *ContentionIndex, active []*coflow.CoFlow) map[coflow.CoFlowID]int {
	coflow.EnsureIndexed(active)
	x.Sync(active)
	out := make(map[coflow.CoFlowID]int, len(active))
	for _, c := range active {
		out[c.ID()] = x.K(c)
	}
	return out
}

func TestContentionIndexFig1(t *testing.T) {
	c1 := mkCoflow(1, 0, coflow.FlowSpec{Src: 0, Dst: 3, Size: 1})
	c2 := mkCoflow(2, 0,
		coflow.FlowSpec{Src: 0, Dst: 4, Size: 1},
		coflow.FlowSpec{Src: 1, Dst: 5, Size: 1},
		coflow.FlowSpec{Src: 2, Dst: 6, Size: 1})
	c3 := mkCoflow(3, 0, coflow.FlowSpec{Src: 1, Dst: 7, Size: 1})
	c4 := mkCoflow(4, 0, coflow.FlowSpec{Src: 2, Dst: 8, Size: 1})
	k := kOf(NewContentionIndex(), []*coflow.CoFlow{c1, c2, c3, c4})
	want := map[coflow.CoFlowID]int{1: 1, 2: 3, 3: 1, 4: 1}
	for id, w := range want {
		if k[id] != w {
			t.Errorf("k_%d = %d, want %d (all: %v)", id, k[id], w, k)
		}
	}
}

// TestContentionIndexTracksEpochs: the index only refreshes a CoFlow's
// port contributions when its mutation epoch changes, and the values
// follow the mutation.
func TestContentionIndexTracksEpochs(t *testing.T) {
	a := mkCoflow(1, 0, coflow.FlowSpec{Src: 0, Dst: 9, Size: 1})
	b := mkCoflow(2, 0, coflow.FlowSpec{Src: 0, Dst: 8, Size: 1})
	x := NewContentionIndex()
	active := []*coflow.CoFlow{a, b}
	if k := kOf(x, active); k[1] != 1 || k[2] != 1 {
		t.Fatalf("initial k = %v", k)
	}
	// b's only flow completes; the epoch moves and the index must notice.
	b.Complete(b.Flows[0], 0)
	if k := kOf(x, active); k[1] != 0 || k[2] != 0 {
		t.Fatalf("post-completion k = %v, want zeros", k)
	}
	// b departs entirely; a alone has no contention.
	if k := kOf(x, []*coflow.CoFlow{a}); k[1] != 0 {
		t.Fatalf("post-departure k = %v", k)
	}
}

// TestContentionIndexMatchesReference drives random clusters through
// random per-epoch mutations (completions, availability flips,
// arrivals, departures, epoch moves that change nothing, a CoFlow
// replaced under its ID and Idx) and asserts the incremental index agrees with the reference
// Contention implementation after every round. Indices come from an
// IndexSpace, as in the engine, so a departure followed by an arrival
// hands the newcomer the departed CoFlow's Idx between two Syncs, and
// an arrival followed by a departure leaves as many CoFlows listed as
// the index holds. The wide trials put ports on both sides of a
// signature's word boundaries, one trial widens the port range mid-run
// so every signature is re-strided under live counts, and the last has
// the coordinator testbed's shape: 2,000 ports.
func TestContentionIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 26; trial++ {
		x := NewContentionIndex()
		space := coflow.NewIndexSpace()
		nPorts := rng.Intn(6) + 2
		initial, minLive, widenAt := rng.Intn(8)+2, 0, -1
		switch {
		case trial == 25:
			nPorts, initial, minLive = 2000, 300, 200 // sixty-three words
		case trial == 24:
			nPorts, initial, minLive, widenAt = 20, 60, 40, 10 // one word, then four
		case trial >= 22:
			nPorts, initial, minLive = 80, 160, 129 // three words
		case trial >= 20:
			nPorts, initial, minLive = 40, 90, 65 // two words
		}
		var active []*coflow.CoFlow
		nextID := coflow.CoFlowID(1)
		newSpec := func(id coflow.CoFlowID) *coflow.Spec {
			spec := &coflow.Spec{ID: id}
			for j := 0; j <= rng.Intn(4); j++ {
				spec.Flows = append(spec.Flows, coflow.FlowSpec{
					Src:  coflow.PortID(rng.Intn(nPorts)),
					Dst:  coflow.PortID(rng.Intn(nPorts)),
					Size: coflow.Bytes(rng.Intn(100) + 1),
				})
			}
			return spec
		}
		addCoflow := func() {
			c := coflow.New(newSpec(nextID))
			nextID++
			space.Assign(c)
			active = append(active, c)
		}
		depart := func() (idx int) {
			i := rng.Intn(len(active))
			c := active[i]
			active = append(active[:i], active[i+1:]...)
			idx = c.Idx
			space.Release(c)
			return idx
		}
		for i := 0; i < initial; i++ {
			addCoflow()
		}
		recycled, unchanged, swapped, crossed := 0, 0, 0, 0
		for round := 0; round < 30; round++ {
			if round == widenAt {
				nPorts = 120
			}
			// Random churn between rounds.
			switch rng.Intn(9) {
			case 0:
				addCoflow()
			case 1:
				if len(active) > 1 {
					depart()
				}
			case 2:
				if len(active) > 0 {
					c := active[rng.Intn(len(active))]
					c.Complete(c.Flows[rng.Intn(len(c.Flows))], 0) // nothing, if already done
				}
			case 3:
				if len(active) > 0 {
					c := active[rng.Intn(len(active))]
					f := c.Flows[rng.Intn(len(c.Flows))]
					c.SetAvailable(f, !f.Available())
				}
			case 4:
				// Depart + arrive with no Sync in between: the LIFO
				// free list gives the newcomer the departed index.
				if len(active) > 1 {
					idx := depart()
					addCoflow()
					if got := active[len(active)-1].Idx; got != idx {
						t.Fatalf("IndexSpace did not recycle index %d: newcomer got %d", idx, got)
					}
					recycled++
				}
			case 5:
				// Arrive + depart: the index holds exactly as many CoFlows
				// as the next Sync lists, one of them not listed.
				if len(active) > 1 {
					addCoflow()
					depart()
				}
			case 6:
				// The epoch moves and the sendable set stays.
				if len(active) > 0 {
					c := active[rng.Intn(len(active))]
					f := c.Flows[0]
					c.SetAvailable(f, !f.Available()) // held back and released again
					c.SetAvailable(f, !f.Available())
					unchanged++
				}
			case 7:
				// A replacement between two Syncs: a new CoFlow under the
				// same ID takes the old one's Idx, on the same ports or others.
				if len(active) > 0 {
					i := rng.Intn(len(active))
					old := active[i]
					spec := newSpec(old.ID())
					if rng.Intn(2) == 0 {
						spec = old.Spec
					}
					space.Release(old)
					c := coflow.New(spec)
					space.Assign(c)
					active[i] = c
					swapped++
				}
			case 8:
				if len(active) > 0 {
					addCoflow()
				}
			}
			got := kOf(x, active)
			want := Contention(active)
			for _, c := range active {
				if got[c.ID()] != want[c.ID()] {
					t.Fatalf("trial %d round %d: k_%d = %d, reference %d",
						trial, round, c.ID(), got[c.ID()], want[c.ID()])
				}
			}
			if x.words > 1 {
				crossed++
			}
		}
		if minLive > 0 && (len(active) < minLive || recycled == 0 || unchanged == 0 || swapped == 0) {
			t.Fatalf("trial %d: %d live (want >= %d), %d recycled, %d unchanged, %d swapped — the wide trial lost its coverage",
				trial, len(active), minLive, recycled, unchanged, swapped)
		}
		if widenAt >= 0 && (crossed == 0 || crossed == 30) {
			t.Fatalf("trial %d: signatures spanned several words in %d of 30 rounds — the re-stride did not happen mid-run", trial, crossed)
		}
	}
}

// benchIndexCluster is the index benchmarks' active set: 500 CoFlows
// of up to six flows on 150 ports.
func benchIndexCluster() []*coflow.CoFlow {
	rng := rand.New(rand.NewSource(3))
	var active []*coflow.CoFlow
	for i := 0; i < 500; i++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(i + 1)}
		for j := 0; j <= rng.Intn(5); j++ {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{
				Src:  coflow.PortID(rng.Intn(150)),
				Dst:  coflow.PortID(rng.Intn(150)),
				Size: coflow.MB,
			})
		}
		active = append(active, coflow.New(spec))
	}
	coflow.EnsureIndexed(active)
	return active
}

func BenchmarkContentionIndexSteadyState(b *testing.B) {
	active := benchIndexCluster()
	x := NewContentionIndex()
	x.Sync(active)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Sync(active)
		for _, c := range active {
			x.K(c)
		}
	}
}

// BenchmarkContentionIndexOneChanged is the steady state with one
// CoFlow's sendable set moving per round, as a flow completing moves
// it: a flow of it toggles between held back and sendable, so every
// round rebuilds its signature and walks the other CoFlows' counts.
func BenchmarkContentionIndexOneChanged(b *testing.B) {
	active := benchIndexCluster()
	x := NewContentionIndex()
	x.Sync(active)
	c := active[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetAvailable(c.Flows[0], !c.Flows[0].Available())
		x.Sync(active)
		for _, c := range active {
			x.K(c)
		}
	}
}

// BenchmarkContentionIndexWideMove is dense-burst's shape: 110 wide
// CoFlows on 150 ports, each eight mappers by eight reducers plus one
// flow from its first mapper to a receiver none of its other flows
// enter. Each round one member's extra flow is held back or released —
// the sendable set a completion of it leaves — so each round flips one
// direction, the receiver's ingress, of one member, and walks the
// members on that receiver.
func BenchmarkContentionIndexWideMove(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var active []*coflow.CoFlow
	for i := 0; i < 110; i++ {
		ports := rng.Perm(150)
		mappers, reducers, extra := ports[:8], ports[8:16], ports[16]
		spec := &coflow.Spec{ID: coflow.CoFlowID(i + 1)}
		for _, r := range reducers {
			for _, m := range mappers {
				spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: coflow.PortID(m), Dst: coflow.PortID(r), Size: coflow.MB})
			}
		}
		spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: coflow.PortID(mappers[0]), Dst: coflow.PortID(extra), Size: coflow.MB})
		active = append(active, coflow.New(spec))
	}
	coflow.EnsureIndexed(active)
	x := NewContentionIndex()
	x.Sync(active)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := active[i%len(active)]
		f := c.Flows[len(c.Flows)-1]
		c.SetAvailable(f, !f.Available())
		x.Sync(active)
		for _, c := range active {
			x.K(c)
		}
	}
}

// BenchmarkContentionIndexFewLive is sparse-longtail's shape: three
// live CoFlows of up to four flows on 150 ports, and each round the
// oldest departs and another arrives — below trackAt, where a change
// visits every member rather than keep the member sets.
func BenchmarkContentionIndexFewLive(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var pool []*coflow.CoFlow
	for i := 0; i < 64; i++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(i + 1)}
		for j := 0; j <= rng.Intn(4); j++ {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: coflow.PortID(rng.Intn(150)), Dst: coflow.PortID(rng.Intn(150)), Size: coflow.MB})
		}
		pool = append(pool, coflow.New(spec))
	}
	space := coflow.NewIndexSpace()
	active := pool[:3:3]
	for _, c := range active {
		space.Assign(c)
	}
	active = append([]*coflow.CoFlow(nil), active...)
	x := NewContentionIndex()
	x.Sync(active)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Release(active[0])
		copy(active, active[1:])
		c := pool[(i+3)%len(pool)]
		space.Assign(c)
		active[len(active)-1] = c
		x.Sync(active)
		for _, c := range active {
			x.K(c)
		}
	}
}

// FuzzContentionIndex drives one index through a script of changes to
// an active set whose indices come from an IndexSpace, as the engine
// and the coordinator hand them out, and after every Sync holds each
// live CoFlow's K to the map-based Contention. The input is a seed byte
// — the PRNG that places flows, and an initial port range of 2 to 31
// ports, so signatures start one word wide — then (op, arg) byte pairs,
// by op mod 8:
//
//   - 0 arrive: 1 + arg&15 CoFlows of 1 + (arg>>5)&3 flows each; with
//     bit 4 of arg set every flow enters port 0, a direction every such
//     member shares;
//   - 1 depart: the CoFlow arg picks;
//   - 2 complete: the flow arg picks finishes;
//   - 3 hold or release: the flow arg picks flips Available;
//   - 4 replace: a new CoFlow under the same ID takes the old one's Idx
//     with no Sync between, on the same flows (even arg) or resized ones
//     (odd);
//   - 5 recycle: a departure and an arrival with no Sync between, the
//     newcomer taking the departed CoFlow's Idx and, in the index, its
//     slot;
//   - 6 widen: the port range grows by 1 + arg and a CoFlow arrives on
//     its new top port, re-striding every signature under live counts;
//   - 7 Sync and check.
//
// The script ends with a Sync and check too. Arrivals stop at 400 live
// CoFlows. The committed corpus under testdata/fuzz holds member slots
// crossing 64 (member sets several words long), a move that flips a
// direction every member shares, and a mid-run re-stride to a port
// beyond the signatures' 32·words.
func FuzzContentionIndex(f *testing.F) {
	f.Add([]byte{5, 0, 0x23, 7, 0, 2, 1, 3, 2, 7, 0, 4, 3, 5, 1, 6, 40, 7, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 2<<10 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(in[0])))
		nPorts := 2 + int(in[0])%30
		x := NewContentionIndex()
		space := coflow.NewIndexSpace()
		var active []*coflow.CoFlow
		nextID := coflow.CoFlowID(1)
		arrive := func(width int, incast bool, top bool) {
			if len(active) >= 400 {
				return
			}
			spec := &coflow.Spec{ID: nextID}
			nextID++
			for j := 0; j < width; j++ {
				fs := coflow.FlowSpec{Src: coflow.PortID(rng.Intn(nPorts)), Dst: coflow.PortID(rng.Intn(nPorts)), Size: 1}
				if incast {
					fs.Dst = 0
				}
				if top && j == 0 {
					fs.Src = coflow.PortID(nPorts - 1)
				}
				spec.Flows = append(spec.Flows, fs)
			}
			c := coflow.New(spec)
			space.Assign(c)
			active = append(active, c)
		}
		depart := func(i int) int {
			c := active[i]
			active = append(active[:i], active[i+1:]...)
			idx := c.Idx
			space.Release(c)
			return idx
		}
		flow := func(arg byte) (*coflow.CoFlow, *coflow.Flow) {
			c := active[int(arg)%len(active)]
			return c, c.Flows[int(arg)/len(active)%len(c.Flows)]
		}
		check := func(step int) {
			coflow.EnsureIndexed(active)
			x.Sync(active)
			want := Contention(active)
			for _, c := range active {
				if got := x.K(c); got != want[c.ID()] {
					t.Fatalf("step %d: k_%d = %d, reference %d (%d live, %d ports)", step, c.ID(), got, want[c.ID()], len(active), nPorts)
				}
			}
		}
		step := 0
		for ops := in[1:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
			op, arg := ops[0], ops[1]
			if len(active) == 0 && op%8 != 0 && op%8 != 6 && op%8 != 7 {
				continue
			}
			switch op % 8 {
			case 0:
				for n := 1 + int(arg&15); n > 0; n-- {
					arrive(1+int(arg>>5)&3, arg&16 != 0, false)
				}
			case 1:
				depart(int(arg) % len(active))
			case 2:
				c, f := flow(arg)
				c.Complete(f, 0) // nothing, if already done
			case 3:
				c, f := flow(arg)
				c.SetAvailable(f, !f.Available())
			case 4:
				i := int(arg) % len(active)
				old := active[i]
				spec := old.Spec
				if arg&1 == 1 {
					spec = &coflow.Spec{ID: old.ID(), Flows: slices.Clone(old.Spec.Flows)}
					for j := range spec.Flows {
						spec.Flows[j].Size++
					}
				}
				idx := old.Idx
				space.Release(old)
				c := coflow.New(spec)
				space.Assign(c)
				if c.Idx != idx {
					t.Fatalf("step %d: the replacement moved Idx %d to %d", step, idx, c.Idx)
				}
				active[i] = c
			case 5:
				idx := depart(int(arg) % len(active))
				arrive(1+int(arg>>5)&3, false, false)
				if n := len(active); n > 0 && active[n-1].Idx != idx {
					t.Fatalf("step %d: the newcomer got Idx %d, not the departed %d", step, active[n-1].Idx, idx)
				}
			case 6:
				nPorts = min(nPorts+1+int(arg), 2048)
				arrive(1+int(arg>>5)&3, false, true)
			case 7:
				check(step)
			}
		}
		check(step)
	})
}
