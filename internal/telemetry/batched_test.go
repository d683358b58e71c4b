package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// observeEach is Observe as it was before occupancy was batched: every
// sampled interval walks every sendable flow into fresh per-port
// counts, feeds every busy port into the histograms and heatmaps, syncs
// the contention index and adds every k_c. The batched Suite must export
// exactly what this one does.
func (s *Suite) observeEach(iv *Interval) {
	s.intervals++
	if s.spec.Stride > 1 && iv.Index%s.spec.Stride != 0 {
		return
	}
	s.sampled++
	now := iv.Now

	eg, in := make([]int, iv.NumPorts), make([]int, iv.NumPorts)
	var queuedBytes coflow.Bytes
	blocked := 0
	for _, c := range iv.Active {
		flows := c.SendableFlows()
		var granted float64
		for _, f := range flows {
			eg[f.Src]++
			in[f.Dst]++
			queuedBytes += f.Remaining()
			if r, ok := iv.Alloc.Get(f.Idx); ok {
				granted += float64(r)
			}
		}
		if len(flows) > 0 && granted <= 0 {
			blocked++
		}
	}
	busyEach := func(occ []int, h *Histogram) (mean, max float64) {
		busy, sum := 0, 0
		for _, n := range occ {
			if n == 0 {
				continue
			}
			busy++
			sum += n
			if f := float64(n); f > max {
				max = f
			}
			h.Add(float64(n))
		}
		if busy > 0 {
			mean = float64(sum) / float64(busy)
		}
		return mean, max
	}
	egMean, egMax := busyEach(eg, s.hEgress)
	inMean, inMax := busyEach(in, s.hIngress)
	if s.heatEg != nil {
		s.heatEg.ObserveN(eg, 1)
		s.heatIn.ObserveN(in, 1)
	}

	f := &s.fixed
	f.active.Record(now, float64(len(iv.Active)))
	f.admitted.Record(now, float64(iv.Admitted))
	f.completed.Record(now, float64(iv.Completed))
	f.egressUtil.Record(now, iv.Utilization())
	f.egQueueMean.Record(now, egMean)
	f.egQueueMax.Record(now, egMax)
	f.inQueueMean.Record(now, inMean)
	f.inQueueMax.Record(now, inMax)
	f.queuedBytes.Record(now, float64(queuedBytes))
	f.blocked.Record(now, float64(blocked))

	if s.qt != nil {
		promotions, demotions := s.qt.observe(iv.Active)
		f.promotions.Record(now, float64(promotions))
		f.demotions.Record(now, float64(demotions))
	}

	s.cindex.Sync(iv.Active)
	for _, c := range iv.Active {
		s.hContention.Add(float64(s.cindex.K(c)))
	}

	if s.spec.ProgressCoFlows > 0 {
		for _, c := range iv.Active {
			e := s.progressFor(c)
			if e == nil {
				continue
			}
			frac := 1.0
			if e.total > 0 {
				frac = float64(c.TotalSent()) / float64(e.total)
			}
			e.series.Record(now, frac)
		}
	}
}

// liveSet is a small cluster for the twin test: CoFlows arrive, move
// bytes, finish flow by flow, have flows withheld and released, and sit
// through quiet stretches in which only bytes move.
type liveSet struct {
	rng       *rand.Rand
	ports     int
	space     *coflow.IndexSpace
	live      []*coflow.CoFlow
	nextID    coflow.CoFlowID
	admitted  int
	completed int
}

func (ls *liveSet) step(quiet bool, now coflow.Time) {
	for n := ls.rng.Intn(3); !quiet && n > 0 && len(ls.live) < 10; n-- {
		ls.nextID++
		spec := &coflow.Spec{ID: ls.nextID}
		for j := ls.rng.Intn(6) + 1; j > 0; j-- {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{
				Src:  coflow.PortID(ls.rng.Intn(ls.ports)),
				Dst:  coflow.PortID(ls.rng.Intn(ls.ports)),
				Size: coflow.Bytes(ls.rng.Intn(40)+1) * coflow.MB,
			})
		}
		c := coflow.New(spec)
		c.Arrived = now
		for _, f := range c.Flows {
			c.SetAvailable(f, ls.rng.Intn(6) != 0)
		}
		ls.space.Assign(c)
		ls.live = append(ls.live, c)
		ls.admitted++
	}
	still := ls.live[:0]
	for _, c := range ls.live {
		for _, f := range c.PendingFlows() {
			switch {
			case !f.Available():
				if !quiet && ls.rng.Intn(4) == 0 {
					c.SetAvailable(f, true)
				}
			case quiet:
				c.Progress(f, min(f.Size-1, f.Sent()+coflow.MB/4))
			default:
				c.Progress(f, min(f.Size, f.Sent()+coflow.MB))
				if f.Sent() == f.Size {
					c.Complete(f, now)
				}
			}
		}
		if c.RefreshDone() {
			ls.space.Release(c)
			ls.completed++
		} else {
			still = append(still, c)
		}
	}
	ls.live = still
}

// interval builds the observation of one boundary, with a random rate
// on some sendable flows so that some CoFlows are blocked.
func (ls *liveSet) interval(idx int, now coflow.Time) *Interval {
	alloc := sched.NewRateVec(ls.space.FlowCap())
	var total float64
	for _, c := range ls.live {
		for _, f := range c.SendableFlows() {
			if ls.rng.Intn(3) == 0 {
				r := coflow.Rate(ls.rng.Intn(100) + 1)
				alloc.Set(f.Idx, r)
				total += float64(r)
			}
		}
	}
	return &Interval{
		Index: idx, Now: now, Delta: coflow.Millisecond,
		NumPorts: ls.ports, PortRate: 1000,
		Active: ls.live, Alloc: alloc, AllocatedRate: total,
		Admitted: ls.admitted, Completed: ls.completed,
	}
}

// TestBatchedSuiteMatchesPerInterval: a Suite that takes port occupancy
// and k_c only when some Active slot moved, and batches the repeats into
// its histograms and heatmaps, must export exactly what one that takes
// everything every interval exports — at stride 1 and above, with the
// heatmaps on and off, with queue transitions on, and with Metrics read
// mid-run, which flushes the repeats pending at that point.
func TestBatchedSuiteMatchesPerInterval(t *testing.T) {
	sampled, repeated := 0, 0
	for _, stride := range []int{1, 3} {
		for _, heat := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				spec := Spec{Enabled: true, Stride: stride, Seed: seed, RingCap: 16, ReservoirCap: 8,
					QueueTransitions: true, PortHeatmap: heat}
				batched, each := NewSuite(spec), NewSuite(spec)
				ls := &liveSet{rng: rand.New(rand.NewSource(seed)), ports: 5, space: coflow.NewIndexSpace()}
				for i := 0; i < 600; i++ {
					now := coflow.Time(i) * coflow.Millisecond
					ls.step(i/15%2 == 1, now)
					iv := ls.interval(i, now)
					was, before := batched.sampled, batched.repeats
					batched.Observe(iv)
					each.observeEach(iv)
					if batched.sampled != was {
						sampled++
						if batched.repeats > before { // not taken afresh (or just after a Metrics flush)
							repeated++
						}
					}
					if i%97 == 0 || i == 599 {
						where := fmt.Sprintf("stride %d heatmap %v seed %d interval %d", stride, heat, seed, i)
						if got, want := batched.Metrics(), each.Metrics(); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: batched export differs from the per-interval one\n got %+v\nwant %+v", where, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d sampled intervals repeated the occupancy before them", repeated, sampled)
	if repeated*4 < sampled {
		t.Errorf("only %d of %d sampled intervals repeated: the run hardly reached the batched path", repeated, sampled)
	}
}

// TestSuiteObserveZeroAlloc: once the live set has been seen, an
// Observe — moved or not, rings, reservoirs and progress series
// included — allocates nothing.
func TestSuiteObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := NewSuite(Spec{Enabled: true, Seed: 1, QueueTransitions: true, PortHeatmap: true,
		RingCap: 256, ReservoirCap: 256, ProgressCoFlows: 4})
	iv := fakeInterval(0)
	s.Observe(iv)
	i := 1
	if n := testing.AllocsPerRun(200, func() {
		iv.Index = i
		if c := iv.Active[0]; i%5 == 0 {
			f := c.Flows[0] // held back and released again: the epoch moves
			c.SetAvailable(f, !f.Available())
			c.SetAvailable(f, !f.Available())
		}
		s.Observe(iv)
		i++
	}); n != 0 {
		t.Fatalf("a steady-state Observe allocates %.1f times, want 0", n)
	}
}
