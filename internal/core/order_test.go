package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// orderQueueFresh is the queue order as Schedule computed it before it
// kept each queue's order across calls: a stable sort from whatever
// order the bucket is in. It is the oracle orderQueue's repair is held to.
func (s *Saath) orderQueueFresh(bucket []*coflow.CoFlow, now coflow.Time) {
	slices.SortStableFunc(bucket, func(a, b *coflow.CoFlow) int { return s.inQueueOrder(a, b, now) })
}

// freshBuckets is step (2) as it was before the kept orders: every
// listed CoFlow with a sendable flow, in Active order, in its queue's
// bucket, each bucket then sorted from scratch.
func (s *Saath) freshBuckets(snap *sched.Snapshot) [][]*coflow.CoFlow {
	out := make([][]*coflow.CoFlow, len(s.buckets))
	for _, c := range snap.Active {
		if len(c.SendableFlows()) > 0 {
			q := s.states[c.Idx].queue
			out[q] = append(out[q], c)
		}
	}
	for _, b := range out {
		s.orderQueueFresh(b, snap.Now)
	}
	return out
}

// workConserveUnfiltered is workConserve before the open-port reject
// and the receiver-run skip: every sendable flow of every missed CoFlow
// asks PathFree. It returns how many of those flows the run skip passes
// over: a position whose receiver was closed at the position before it,
// of the same run, in a CoFlow whose signature still had an open egress
// and an open ingress there. (Open bits only clear within a call, so
// workConserve has not left the CoFlow by then, and skips this one.) The
// index must be synced over missed.
func (s *Saath) workConserveUnfiltered(fab *fabric.Fabric, missed []*coflow.CoFlow, alloc *sched.RateVec) (runSkipped int) {
	const eps = 1e-3
	for _, c := range missed {
		sig, ports := s.cindex.Signature(c), c.SendablePorts()
		for i, f := range c.SendableFlows() {
			if i > 0 && ports[i-1].Dst == ports[i].Dst && float64(fab.IngressFree(f.Dst)) <= eps && fab.OpenEnds(sig) {
				runSkipped++
			}
			r := fab.PathFree(f.Src, f.Dst)
			if float64(r) <= eps {
				continue
			}
			alloc.Add(f.Idx, r)
			fab.Allocate(f.Src, f.Dst, r)
			s.recordAllocation(c, f, alloc.Rate(f.Idx))
		}
	}
	return runSkipped
}

// TestRepairedOrderMatchesFreshSort: after every full Schedule each
// queue's bucket — repaired from the previous call's order — holds the
// same CoFlows in the same order as a bucket built from the listed
// CoFlows and sorted from scratch. The cluster is oracle_test.go's:
// arrivals, departures with index reuse, restarts,
// withheld flows; on slow ports, so CoFlows wait long enough for their
// starvation deadlines to pass, under LCoF (whose k_c moves with every
// sendable set), its width proxy, and FIFO. Holding is switched off by
// dropping the previous decision before each call, not the kept orders.
func TestRepairedOrderMatchesFreshSort(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	variants := []func(*sched.Params){
		func(p *sched.Params) { p.DeadlineFactor = 1 },
		func(p *sched.Params) { p.DeadlineFactor, p.WidthContentionProxy = 1, true },
		func(p *sched.Params) { p.DeadlineFactor, p.LCoF, p.WorkConservation = 1, false, false },
	}
	expired, kcMoved, repaired := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		tc := &trackingCluster{
			rng: rand.New(rand.NewSource(seed)), ports: 8,
			space: coflow.NewIndexSpace(), slow: make(map[*coflow.Flow]float64),
		}
		s := newSaath(t, variants[seed%3])
		snap := &sched.Snapshot{Fabric: fabric.New(tc.ports, fabric.DefaultPortRate/8)}
		prevK := map[*coflow.CoFlow]int{}
		for step := 0; step < 300; step++ {
			now := coflow.Time(step) * delta
			for n := tc.rng.Intn(3); n > 0 && len(tc.live) < 24; n-- {
				tc.arrive(now, s)
			}
			snap.Fabric.Reset()
			snap.Now, snap.Active = now, tc.live
			snap.FlowCap, snap.CoFlowCap = tc.space.FlowCap(), tc.space.CoFlowCap()
			s.last = lastDecision{}
			kept := 0
			for _, b := range s.buckets {
				kept += len(b)
			}
			alloc := s.Schedule(snap)
			want := s.freshBuckets(snap)
			for q := range want {
				if !slices.Equal(s.buckets[q], want[q]) {
					t.Fatalf("seed %d step %d queue %d: repaired %v, fresh sort %v", seed, step, q, ids(s.buckets[q]), ids(want[q]))
				}
				for _, c := range want[q] {
					if now >= s.states[c.Idx].deadline {
						expired++
					}
					if k, ok := prevK[c]; ok && k != s.kc[c.Idx] && s.params.LCoF {
						kcMoved++
					}
					prevK[c] = s.kc[c.Idx]
				}
			}
			if kept > 0 {
				repaired++
			}
			tc.advance(alloc, now, delta, s)
		}
	}
	t.Logf("%d expired, %d k_c moves, %d calls started from a kept order", expired, kcMoved, repaired)
	if expired == 0 || kcMoved == 0 || repaired == 0 {
		t.Errorf("%d expired, %d k_c moves, %d repaired calls — the run never reached them", expired, kcMoved, repaired)
	}
}

func ids(cs []*coflow.CoFlow) []coflow.CoFlowID {
	out := make([]coflow.CoFlowID, len(cs))
	for i, c := range cs {
		out[i] = c.ID()
	}
	return out
}

// TestWorkConserveRejectIsExact: on random fabrics, drawn down port by
// port to nothing, to just under the open threshold, to half or not at
// all, work conservation with the open-port reject and the receiver-run
// skip grants exactly what the loop that asks every flow grants — the
// same rates, residuals and rated list — and both fire. Every third
// CoFlow is wide and reducer-major, as trace.Parse and trace.Synthesize
// lay them out, so receivers close partway through a run.
func TestWorkConserveRejectIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected, runSkipped := 0, 0
	for trial := 0; trial < 300; trial++ {
		ports := 2 + rng.Intn(70)
		space := coflow.NewIndexSpace()
		var missed []*coflow.CoFlow
		for i := 0; i < 1+rng.Intn(12); i++ {
			spec := &coflow.Spec{ID: coflow.CoFlowID(i + 1)}
			if i%3 == 0 {
				mappers, reducers := 4+rng.Intn(9), 2+rng.Intn(3)
				srcs := rng.Perm(ports)[:min(mappers, ports)]
				for r := 0; r < reducers; r++ {
					dst := coflow.PortID(rng.Intn(ports))
					for _, src := range srcs {
						spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: coflow.PortID(src), Dst: dst, Size: coflow.MB})
					}
				}
			} else {
				for j := 0; j <= rng.Intn(5); j++ {
					spec.Flows = append(spec.Flows, coflow.FlowSpec{
						Src: coflow.PortID(rng.Intn(ports)), Dst: coflow.PortID(rng.Intn(ports)), Size: coflow.MB,
					})
				}
			}
			c := coflow.New(spec)
			space.Assign(c)
			missed = append(missed, c)
		}
		var draws [][3]float64
		for i := 0; i < rng.Intn(3*ports); i++ {
			draws = append(draws, [3]float64{float64(rng.Intn(ports)), float64(rng.Intn(ports)), float64(rng.Intn(4))})
		}
		var allocs [2]*sched.RateVec
		var fabs [2]*fabric.Fabric
		var rated [2][]ratedRef
		for side := range allocs {
			s := newSaath(t, nil)
			snap := &sched.Snapshot{
				Active: missed, Fabric: fabric.New(ports, fabric.DefaultPortRate),
				FlowCap: space.FlowCap(), CoFlowCap: space.CoFlowCap(),
			}
			fab := snap.Fabric
			for _, d := range draws {
				src, dst := coflow.PortID(d[0]), coflow.PortID(d[1])
				free := fab.PathFree(src, dst)
				switch d[2] {
				case 0:
					fab.Allocate(src, dst, free)
				case 1:
					fab.Allocate(src, dst, max(free-5e-4, 0))
				case 2:
					fab.Allocate(src, dst, free/2)
				}
			}
			s.growScratch(snap)
			s.cindex.Sync(missed)
			alloc := snap.Allocation()
			if side == 0 {
				for _, c := range missed {
					if !fab.OpenEnds(s.cindex.Signature(c)) {
						rejected++
					}
				}
				s.workConserve(fab, missed, alloc)
			} else {
				runSkipped += s.workConserveUnfiltered(fab, missed, alloc)
			}
			allocs[side], fabs[side], rated[side] = alloc, fab, s.rated
		}
		where := fmt.Sprintf("trial %d", trial)
		if !allocs[0].Equal(allocs[1]) {
			t.Fatalf("%s: rates %v, unfiltered %v", where, dump(allocs[0]), dump(allocs[1]))
		}
		for p := coflow.PortID(0); int(p) < ports; p++ {
			if fabs[0].EgressFree(p) != fabs[1].EgressFree(p) || fabs[0].IngressFree(p) != fabs[1].IngressFree(p) {
				t.Fatalf("%s: port %d residuals differ", where, p)
			}
		}
		if !slices.Equal(rated[0], rated[1]) {
			t.Fatalf("%s: rated %v, unfiltered %v", where, rated[0], rated[1])
		}
	}
	t.Logf("%d missed CoFlows rejected, %d flows passed over in a closed receiver's run", rejected, runSkipped)
	if rejected == 0 || runSkipped == 0 {
		t.Errorf("%d rejected, %d run skips: a filter was never exercised", rejected, runSkipped)
	}
}
