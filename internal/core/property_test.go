package core

import (
	"math/rand"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// randomCluster builds a random active set with partial progress, the
// adversarial input for the scheduling invariants below.
func randomCluster(rng *rand.Rand, nPorts, nCoflows int) []*coflow.CoFlow {
	active := make([]*coflow.CoFlow, 0, nCoflows)
	for i := 0; i < nCoflows; i++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(i + 1)}
		w := rng.Intn(6) + 1
		for j := 0; j < w; j++ {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{
				Src:  coflow.PortID(rng.Intn(nPorts)),
				Dst:  coflow.PortID(rng.Intn(nPorts)),
				Size: coflow.Bytes(rng.Intn(200)+1) * coflow.MB,
			})
		}
		c := coflow.New(spec)
		c.Arrived = coflow.Time(rng.Intn(1000)) * coflow.Millisecond
		for _, f := range c.Flows {
			sent := coflow.Bytes(rng.Int63n(int64(f.Size) + 1))
			if sent == f.Size && rng.Intn(2) == 0 {
				c.Progress(f, sent)
				c.Complete(f, 0)
			} else {
				c.Progress(f, sent/2) // keep pending flows genuinely pending
			}
			if rng.Intn(10) == 0 {
				c.SetAvailable(f, false)
			}
		}
		if len(c.PendingFlows()) == 0 {
			continue // fully-done coflows never reach the scheduler
		}
		active = append(active, c)
	}
	coflow.EnsureIndexed(active) // as the engine does before Arrive
	return active
}

// TestAllOrNonePropertyWithoutWC: with work conservation disabled, a
// CoFlow's sendable flows are either all scheduled at one equal rate
// or none are — the defining Saath invariant (§3 idea 1).
func TestAllOrNonePropertyWithoutWC(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := sched.DefaultParams()
	p.WorkConservation = false
	for trial := 0; trial < 100; trial++ {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		nPorts := rng.Intn(8) + 2
		active := randomCluster(rng, nPorts, rng.Intn(10)+1)
		for _, c := range active {
			s.Arrive(c, 0)
		}
		snap := &sched.Snapshot{
			Now:    coflow.Time(trial) * coflow.Millisecond,
			Active: active,
			Fabric: fabric.New(nPorts, fabric.DefaultPortRate),
		}
		alloc := s.Schedule(snap)
		for _, c := range active {
			flows := c.SendableFlows()
			if len(flows) == 0 {
				continue
			}
			var scheduled int
			var rate coflow.Rate
			for _, f := range flows {
				if r := alloc.Rate(f.Idx); r > 0 {
					scheduled++
					if rate == 0 {
						rate = r
					} else if r != rate {
						t.Fatalf("trial %d: coflow %d has unequal rates %v vs %v",
							trial, c.ID(), rate, r)
					}
				}
			}
			if scheduled != 0 && scheduled != len(flows) {
				t.Fatalf("trial %d: coflow %d partially scheduled (%d of %d)",
					trial, c.ID(), scheduled, len(flows))
			}
		}
	}
}

// TestNoOversubscriptionProperty: the full design (with work
// conservation) never allocates more than line rate on any port.
func TestNoOversubscriptionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		s, err := New(sched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		nPorts := rng.Intn(8) + 2
		active := randomCluster(rng, nPorts, rng.Intn(14)+1)
		for _, c := range active {
			s.Arrive(c, 0)
		}
		snap := &sched.Snapshot{Active: active, Fabric: fabric.New(nPorts, fabric.DefaultPortRate)}
		alloc := s.Schedule(snap)

		egress := make([]float64, nPorts)
		ingress := make([]float64, nPorts)
		flowByIdx := make(map[int]*coflow.Flow)
		for _, c := range active {
			for _, f := range c.Flows {
				flowByIdx[f.Idx] = f
			}
		}
		alloc.Range(func(idx int, r coflow.Rate) bool {
			f := flowByIdx[idx]
			if f == nil {
				t.Fatalf("trial %d: alloc for unknown flow index %d", trial, idx)
			}
			if !f.Sendable() {
				t.Fatalf("trial %d: alloc for non-sendable flow index %d", trial, idx)
			}
			egress[f.Src] += float64(r)
			ingress[f.Dst] += float64(r)
			return true
		})
		limit := float64(fabric.DefaultPortRate) * 1.0001
		for p := 0; p < nPorts; p++ {
			if egress[p] > limit || ingress[p] > limit {
				t.Fatalf("trial %d: port %d oversubscribed (eg %.0f, in %.0f)",
					trial, p, egress[p], ingress[p])
			}
		}
	}
}

// TestWorkConservationProperty: after a full Saath round, no sendable
// flow with positive residual capacity on both its ports is left
// completely unscheduled (§4.2 D4).
func TestWorkConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		s, err := New(sched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		nPorts := rng.Intn(8) + 2
		active := randomCluster(rng, nPorts, rng.Intn(14)+1)
		for _, c := range active {
			s.Arrive(c, 0)
		}
		fab := fabric.New(nPorts, fabric.DefaultPortRate)
		snap := &sched.Snapshot{Active: active, Fabric: fab}
		alloc := s.Schedule(snap)
		// fab now holds the residuals after the round.
		eps := 1e-2 * float64(fabric.DefaultPortRate)
		for _, c := range active {
			for _, f := range c.SendableFlows() {
				if alloc.Rate(f.Idx) > 0 {
					continue
				}
				free := float64(fab.PathFree(f.Src, f.Dst))
				if free > eps {
					t.Fatalf("trial %d: flow %v idle with %.0f B/s free on its path",
						trial, c.FlowID(f), free)
				}
			}
		}
	}
}

// TestDeterministicScheduleProperty: two Saath instances fed the same
// event sequence produce identical allocations.
func TestDeterministicScheduleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nPorts := 6
	active := randomCluster(rng, nPorts, 12)
	mkAlloc := func() *sched.RateVec {
		s, err := New(sched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range active {
			s.Arrive(c, 0)
		}
		snap := &sched.Snapshot{Active: active, Fabric: fabric.New(nPorts, fabric.DefaultPortRate)}
		return s.Schedule(snap)
	}
	a, b := mkAlloc(), mkAlloc()
	if !a.Equal(b) {
		t.Fatalf("identical event sequences produced different allocations (%d vs %d entries)",
			a.Len(), b.Len())
	}
}
