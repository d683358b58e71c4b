package core

import (
	"fmt"
	"math/rand"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// The full walks: straggler tracking as Schedule did it before it
// followed the allocation — every pending flow of every live CoFlow
// visited twice per interval, once to compare bytes moved against the
// last allocation and once to record the new one. They are the oracle
// TestRateDrivenTrackingMatchesFullWalks holds the rated list to.

// observeProgressFull is Schedule's step (0) over the whole live set.
func (s *Saath) observeProgressFull(snap *sched.Snapshot) {
	dt := snap.Now - s.lastTime
	if s.lastTime < 0 || dt <= 0 {
		return
	}
	const (
		laggard  = 0.6
		streak   = 3
		headroom = 1.25
	)
	floor := snap.Fabric.PortRate() / 16
	for _, c := range snap.Active {
		for _, f := range c.PendingFlows() {
			tr := &s.tracks[f.Idx]
			if tr.lastAlloc <= 0 {
				continue
			}
			moved := f.Sent() - tr.lastSent
			observed := coflow.Rate(float64(moved) / dt.Seconds())
			if observed < tr.lastAlloc*laggard {
				tr.lagStreak++
				if tr.lagStreak >= streak {
					cap := observed * headroom
					if cap < floor {
						cap = floor
					}
					tr.estCap = cap
				}
				continue
			}
			tr.lagStreak = 0
			if tr.estCap > 0 {
				tr.estCap *= 2
				if tr.estCap >= snap.Fabric.PortRate() {
					tr.estCap = 0
				}
			}
		}
	}
}

// recordAllocationsFull rewrites every pending flow's baseline.
func (s *Saath) recordAllocationsFull(snap *sched.Snapshot, alloc *sched.RateVec) {
	for _, c := range snap.Active {
		for _, f := range c.PendingFlows() {
			tr := &s.tracks[f.Idx]
			tr.lastSent = f.Sent()
			tr.lastAlloc = alloc.Rate(f.Idx)
		}
	}
}

// forget drops what Schedule keeps of its previous call — the decision,
// every CoFlow's derived queue and each queue's order — so the next call
// takes the full path and orders every queue from scratch: the oracle
// the held path is compared with.
func (s *Saath) forget() {
	s.last = lastDecision{}
	for i := range s.states {
		s.states[i].epoch = 0
	}
	for q := range s.buckets {
		s.buckets[q] = s.buckets[q][:0]
	}
}

// scheduleFullWalks is one Schedule with the full walks in place of the
// rated list: observe everything first (step (0) reads only tracks and
// flows, so it commutes with the queue assignment ahead of it), run
// Schedule with nothing left for it to observe — an empty list and no
// rated track; the record walk rewrites every one of those baselines
// anyway — then record everything. Nothing is held: the
// held path re-records off the list this empties.
func (s *Saath) scheduleFullWalks(snap *sched.Snapshot) *sched.RateVec {
	s.forget()
	s.growScratch(snap)
	s.observeProgressFull(snap)
	s.rated = s.rated[:0]
	for _, c := range snap.Active {
		for _, f := range c.PendingFlows() {
			s.tracks[f.Idx].lastAlloc = 0
		}
	}
	alloc := s.Schedule(snap)
	s.recordAllocationsFull(snap, alloc)
	return alloc
}

// trackingCluster is a small live set driven through arrivals, byte
// movement, stragglers, restarts, pipelined availability and
// departures, with indices recycled through one
// IndexSpace as the engine and the coordinator recycle them.
type trackingCluster struct {
	rng    *rand.Rand
	ports  int
	space  *coflow.IndexSpace
	live   []*coflow.CoFlow
	nextID coflow.CoFlowID
	slow   map[*coflow.Flow]float64 // fraction of its rate a flow achieves
}

func (tc *trackingCluster) newSpec(id coflow.CoFlowID, width int) *coflow.Spec {
	spec := &coflow.Spec{ID: id}
	for j := 0; j < width; j++ {
		spec.Flows = append(spec.Flows, coflow.FlowSpec{
			Src:  coflow.PortID(tc.rng.Intn(tc.ports)),
			Dst:  coflow.PortID(tc.rng.Intn(tc.ports)),
			Size: coflow.Bytes(tc.rng.Intn(12)+1) * coflow.MB,
		})
	}
	return spec
}

// roll gives a new flow its hidden behaviour: some straggle, some are
// withheld by pipelining.
func (tc *trackingCluster) roll(c *coflow.CoFlow) {
	for _, f := range c.Flows {
		switch tc.rng.Intn(8) {
		case 0:
			tc.slow[f] = 0.1 + 0.4*tc.rng.Float64() // under the laggard ratio
		case 1:
			c.SetAvailable(f, false)
		}
	}
}

func (tc *trackingCluster) arrive(now coflow.Time, scheds ...*Saath) {
	tc.nextID++
	c := coflow.New(tc.newSpec(tc.nextID, tc.rng.Intn(6)+1))
	c.Arrived = now
	tc.space.Assign(c)
	tc.roll(c)
	tc.live = append(tc.live, c)
	for _, s := range scheds {
		s.Arrive(c, now)
	}
}

// advance moves bytes at the allocated rates for dt, retires what
// finished and releases withheld flows now and then.
func (tc *trackingCluster) advance(alloc *sched.RateVec, now, dt coflow.Time, scheds ...*Saath) {
	still := tc.live[:0]
	for _, c := range tc.live {
		for _, f := range c.Flows {
			if !f.Available() && tc.rng.Intn(4) == 0 {
				c.SetAvailable(f, true)
			}
			r := alloc.Rate(f.Idx)
			if f.Done() || r <= 0 {
				continue
			}
			if k, ok := tc.slow[f]; ok {
				r = coflow.Rate(float64(r) * k)
			}
			c.Progress(f, min(f.Size, f.Sent()+r.Transfer(dt)))
			switch {
			case f.Sent() == f.Size:
				c.Complete(f, now+dt)
			case tc.rng.Intn(40) == 0:
				c.Restart(f) // mid-life
			}
		}
		if c.RefreshDone() {
			for _, s := range scheds {
				s.Depart(c, now+dt)
			}
			tc.space.Release(c)
		} else {
			still = append(still, c)
		}
	}
	tc.live = still
}

// TestRateDrivenTrackingMatchesFullWalks: two Saath instances see the
// same cluster, one tracking stragglers off its rated list, the other
// through the full walks. Allocations, queue history, deadlines and
// every live track — lastAlloc, estCap, lagStreak; lastSent where a
// rate is held, since an unrated flow's is stale and never read — must
// agree after every Schedule.
func TestRateDrivenTrackingMatchesFullWalks(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	for seed := int64(1); seed <= 8; seed++ {
		tc := &trackingCluster{
			rng: rand.New(rand.NewSource(seed)), ports: 6,
			space: coflow.NewIndexSpace(), slow: make(map[*coflow.Flow]float64),
		}
		p := sched.DefaultParams()
		p.WorkConservation = seed%4 != 0
		prod, ref := newSaath(t, func(q *sched.Params) { *q = p }), newSaath(t, func(q *sched.Params) { *q = p })
		snaps := [2]*sched.Snapshot{
			{Fabric: fabric.New(tc.ports, fabric.DefaultPortRate)},
			{Fabric: fabric.New(tc.ports, fabric.DefaultPortRate)},
		}
		capped := 0
		for step := 0; step < 400; step++ {
			now := coflow.Time(step) * delta
			// Departures of the last interval freed indices; arrivals in
			// the same boundary take them over.
			for n := tc.rng.Intn(3); n > 0 && len(tc.live) < 12; n-- {
				tc.arrive(now, prod, ref)
			}
			for _, snap := range snaps {
				snap.Fabric.Reset()
				snap.Now, snap.Active = now, tc.live
				snap.FlowCap, snap.CoFlowCap = tc.space.FlowCap(), tc.space.CoFlowCap()
			}
			if step%50 == 49 {
				snaps[0].Now, snaps[1].Now = now-delta, now-delta // a repeated boundary: dt = 0
			}
			got, want := prod.Schedule(snaps[0]), ref.scheduleFullWalks(snaps[1])
			where := fmt.Sprintf("seed %d step %d", seed, step)
			if !got.Equal(want) {
				t.Fatalf("%s: allocations differ", where)
			}
			for _, c := range tc.live {
				a, b := prod.states[c.Idx], ref.states[c.Idx]
				if a.c != c || b.c != c || a.queue != b.queue || a.enteredAt != b.enteredAt || a.deadline != b.deadline {
					t.Fatalf("%s: coflow %d state %+v, full walks %+v", where, c.ID(), a, b)
				}
				for _, f := range c.PendingFlows() {
					a, b := prod.tracks[f.Idx], ref.tracks[f.Idx]
					if a.lastAlloc != b.lastAlloc || a.estCap != b.estCap || a.lagStreak != b.lagStreak ||
						(a.lastAlloc > 0 && a.lastSent != b.lastSent) {
						t.Fatalf("%s: flow %v track %+v, full walks %+v", where, c.FlowID(f), a, b)
					}
					if a.estCap > 0 {
						capped++
					}
				}
			}
			tc.advance(got, now, delta, prod, ref)
		}
		if capped == 0 {
			t.Errorf("seed %d: no capped track — the run never reached one", seed)
		}
	}
}
