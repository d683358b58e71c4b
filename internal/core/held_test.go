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

// decoy returns a vector that carries v's content stamp and none of its
// contents: what a hold decision that trusted the stamp without the
// pointer would hand out.
func decoy(v *sched.RateVec) *sched.RateVec {
	d := sched.NewRateVec(1)
	for d.ContentStamp() < v.ContentStamp() {
		d.Set(0, 1)
	}
	return d
}

// heldTwins is two Saath instances on one cluster: held schedules as
// production does, full forgets its previous call before every Schedule
// and so always takes the full path. Each has its own snapshot.
type heldTwins struct {
	t          *testing.T
	held, full *Saath
	snaps      [2]*sched.Snapshot
	reissued   int
}

func newHeldTwins(t *testing.T, ports int, mod func(*sched.Params)) *heldTwins {
	tw := &heldTwins{t: t, held: newSaath(t, mod), full: newSaath(t, mod)}
	tw.setFabric(ports, fabric.DefaultPortRate)
	return tw
}

func (tw *heldTwins) setFabric(ports int, rate coflow.Rate) {
	for i := range tw.snaps {
		if tw.snaps[i] == nil {
			tw.snaps[i] = &sched.Snapshot{}
		}
		tw.snaps[i].Fabric = fabric.New(ports, rate)
	}
}

// schedule runs one boundary on both twins and requires them to agree on
// everything a Schedule leaves behind: the allocation, every listed
// CoFlow's queue history, every track of every flow in flows, the rated
// list in order, and the clock. It returns the held twin's allocation.
func (tw *heldTwins) schedule(where string, now coflow.Time, active, live []*coflow.CoFlow, flowCap, coflowCap int, predraw func(*fabric.Fabric)) *sched.RateVec {
	tw.t.Helper()
	for _, snap := range tw.snaps {
		snap.Fabric.Reset()
		if predraw != nil {
			predraw(snap.Fabric)
		}
		snap.Now, snap.Active = now, active
		snap.FlowCap, snap.CoFlowCap = flowCap, coflowCap
	}
	tw.full.forget()
	before := tw.snaps[0].Alloc.ContentStamp()
	got, want := tw.held.Schedule(tw.snaps[0]), tw.full.Schedule(tw.snaps[1])
	if tw.snaps[0].Alloc != nil && before == got.ContentStamp() {
		tw.reissued++
	}
	if !got.Equal(want) {
		tw.t.Fatalf("%s: allocations differ: held %v, full %v", where, dump(got), dump(want))
	}
	for _, c := range active {
		a, b := tw.held.states[c.Idx], tw.full.states[c.Idx]
		if a.c != c || b.c != c || a.queue != b.queue || a.enteredAt != b.enteredAt || a.deadline != b.deadline {
			tw.t.Fatalf("%s: coflow %d state %+v, full path %+v", where, c.ID(), a, b)
		}
	}
	for _, c := range live {
		for _, f := range c.Flows {
			if f.Idx < len(tw.held.tracks) && tw.held.tracks[f.Idx] != tw.full.tracks[f.Idx] {
				tw.t.Fatalf("%s: flow %v track %+v, full path %+v", where, c.FlowID(f), tw.held.tracks[f.Idx], tw.full.tracks[f.Idx])
			}
		}
	}
	if !slices.Equal(tw.held.rated, tw.full.rated) {
		tw.t.Fatalf("%s: rated list %v, full path %v", where, tw.held.rated, tw.full.rated)
	}
	if tw.held.lastTime != tw.full.lastTime {
		tw.t.Fatalf("%s: lastTime %v, full path %v", where, tw.held.lastTime, tw.full.lastTime)
	}
	return got
}

func dump(v *sched.RateVec) string {
	var out []string
	v.Range(func(idx int, r coflow.Rate) bool {
		out = append(out, fmt.Sprintf("%d:%.0f", idx, float64(r)))
		return true
	})
	slices.Sort(out)
	return fmt.Sprint(out)
}

// TestHeldScheduleMatchesFull: a Schedule that reissues its previous
// decision must leave exactly what the full path would. The twins go
// through oracle_test.go's random cluster — arrivals and departures with
// index recycling, stragglers and their caps, restarts, withheld flows,
// repeated boundaries, work conservation on and off —
// in busy and quiet stretches, plus everything else a hold condition
// guards: a CoFlow left out of one boundary's list, a fabric handed over
// partly drawn, a new fabric at another line rate, a returned vector
// that was written to, and a vector that only looks like the returned
// one. TestHeldScheduleConditions scripts the cases a random run reaches
// too rarely.
func TestHeldScheduleMatchesFull(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	boundaries, reissued := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		tc := &trackingCluster{
			rng: rand.New(rand.NewSource(seed)), ports: 6,
			space: coflow.NewIndexSpace(), slow: make(map[*coflow.Flow]float64),
		}
		rng := rand.New(rand.NewSource(seed + 100)) // this test's own draws
		tw := newHeldTwins(t, tc.ports, func(q *sched.Params) { q.WorkConservation = seed%4 != 0 })
		rate := fabric.DefaultPortRate
		for step := 0; step < 400; step++ {
			now := coflow.Time(step) * delta
			quiet := step/20%2 == 1 // arrivals come in bursts
			for n := tc.rng.Intn(3); !quiet && n > 0 && len(tc.live) < 12; n-- {
				tc.arrive(now, tw.held, tw.full)
			}
			active := tc.live
			if len(active) > 1 && rng.Intn(4) == 0 { // one CoFlow sits this boundary out
				k := rng.Intn(len(active))
				active = slices.Delete(slices.Clone(active), k, k+1)
			}
			if rng.Intn(40) == 0 {
				rate = fabric.DefaultPortRate / coflow.Rate(1+rng.Intn(2))
				tw.setFabric(tc.ports, rate)
			}
			var predraw func(*fabric.Fabric)
			if rng.Intn(12) == 0 {
				src, dst := coflow.PortID(rng.Intn(tc.ports)), coflow.PortID(rng.Intn(tc.ports))
				predraw = func(f *fabric.Fabric) { f.Allocate(src, dst, rate/2) }
			}
			if v := tw.snaps[0].Alloc; v != nil && rng.Intn(12) == 0 {
				tw.snaps[0].Alloc = decoy(v)
			}
			if step%50 == 49 {
				now -= delta // a repeated boundary: dt = 0
			}
			got := tw.schedule(fmt.Sprintf("seed %d step %d", seed, step), now, active, tc.live,
				tc.space.FlowCap(), tc.space.CoFlowCap(), predraw)
			tc.advance(got, coflow.Time(step)*delta, delta, tw.held, tw.full)
			if rng.Intn(12) == 0 {
				got.Set(rng.Intn(tc.space.FlowCap()+1), 1) // a caller writes to what it was handed
			}
		}
		boundaries += 400
		reissued += tw.reissued
	}
	t.Logf("%d of %d boundaries reissued the previous decision", reissued, boundaries)
	if reissued*10 < boundaries {
		t.Errorf("only %d of %d boundaries reissued: the run hardly reached the held path", reissued, boundaries)
	}
}

// TestHeldScheduleConditions scripts a boundary the random run above
// reaches too rarely to count on, after a quiet one that must have
// reissued: a starvation deadline passing with nothing else changed.
func TestHeldScheduleConditions(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	build := func(space *coflow.IndexSpace, id coflow.CoFlowID, flows ...coflow.FlowSpec) *coflow.CoFlow {
		c := coflow.New(&coflow.Spec{ID: id, Flows: flows})
		space.Assign(c)
		return c
	}
	t.Run("deadline", func(t *testing.T) {
		// TestStarvationDeadlinePrioritizes on one snapshot: the wide CoFlow
		// loses to its two narrow competitors until its deadline passes.
		space := coflow.NewIndexSpace()
		cw := build(space, 1, coflow.FlowSpec{Src: 0, Dst: 4, Size: coflow.GB}, coflow.FlowSpec{Src: 1, Dst: 5, Size: coflow.GB})
		cn1 := build(space, 2, coflow.FlowSpec{Src: 0, Dst: 6, Size: coflow.GB})
		cn2 := build(space, 3, coflow.FlowSpec{Src: 1, Dst: 7, Size: coflow.GB})
		cn1.Arrived, cn2.Arrived = 1, 2
		live := []*coflow.CoFlow{cw, cn1, cn2}
		tw := newHeldTwins(t, 8, nil)
		for _, c := range live {
			tw.held.Arrive(c, c.Arrived)
			tw.full.Arrive(c, c.Arrived)
		}
		for i, now := range []coflow.Time{2, 2 + delta, 1000 * coflow.Second} {
			got := tw.schedule(fmt.Sprint("call ", i), now, live, live, space.FlowCap(), space.CoFlowCap(), nil)
			if wide := got.Rate(cw.Flows[0].Idx) > 0; wide != (i == 2) {
				t.Errorf("call %d: wide coflow rated = %v", i, wide)
			}
			if want := min(i, 1); tw.reissued != want {
				t.Errorf("after call %d: %d reissued, want %d", i, tw.reissued, want)
			}
		}
	})
}
