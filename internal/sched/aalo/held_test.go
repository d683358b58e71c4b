package aalo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// forget drops what Schedule keeps of its previous call, so the next one
// derives every queue and fills the vector afresh: the oracle the held
// path is compared with.
func (a *Aalo) forget() {
	a.last, a.issued = a.last[:0], sched.Issued{}
}

// heldCluster is a small live set for the twin test: CoFlows arrive,
// move bytes at the rates they were given, finish flow by flow, have
// flows withheld and released, and are swapped for a new runtime CoFlow
// in the same state under the same ID and indices, which the policy
// must tell apart by pointer.
type heldCluster struct {
	rng    *rand.Rand
	ports  int
	space  *coflow.IndexSpace
	live   []*coflow.CoFlow
	nextID coflow.CoFlowID
}

func (hc *heldCluster) arrive(now coflow.Time) {
	hc.nextID++
	spec := &coflow.Spec{ID: hc.nextID}
	for j := hc.rng.Intn(5) + 1; j > 0; j-- {
		spec.Flows = append(spec.Flows, coflow.FlowSpec{
			Src:  coflow.PortID(hc.rng.Intn(hc.ports)),
			Dst:  coflow.PortID(hc.rng.Intn(hc.ports)),
			Size: coflow.Bytes(hc.rng.Intn(24)+1) * coflow.MB,
		})
	}
	c := coflow.New(spec)
	c.Arrived = now
	for _, f := range c.Flows {
		c.SetAvailable(f, hc.rng.Intn(8) != 0)
	}
	hc.space.Assign(c)
	hc.live = append(hc.live, c)
}

func (hc *heldCluster) swap(i int) {
	old := hc.live[i]
	c := coflow.New(old.Spec)
	c.Arrived = old.Arrived
	for j, f := range c.Flows {
		o := old.Flows[j]
		c.Progress(f, o.Sent())
		if o.Done() {
			c.Complete(f, o.DoneAt())
		}
		c.SetAvailable(f, o.Available())
	}
	hc.space.Release(old)
	hc.space.Assign(c)
	hc.live[i] = c
}

func (hc *heldCluster) advance(alloc *sched.RateVec, now, dt coflow.Time) {
	still := hc.live[:0]
	for _, c := range hc.live {
		for _, f := range c.Flows {
			if !f.Available() && hc.rng.Intn(4) == 0 {
				c.SetAvailable(f, true)
			}
			r := alloc.Rate(f.Idx)
			if f.Done() || r <= 0 {
				continue
			}
			c.Progress(f, min(f.Size, f.Sent()+r.Transfer(dt)))
			if f.Sent() == f.Size {
				c.Complete(f, now+dt)
			}
		}
		if c.RefreshDone() {
			hc.space.Release(c)
		} else {
			still = append(still, c)
		}
	}
	hc.live = still
}

// TestHeldScheduleMatchesFull: an Aalo that hands out its previous
// vector, and re-derives a queue only where a CoFlow's stamps moved,
// must decide exactly what one that forgets everything before each call
// decides. Beside arrivals, completions, withheld flows and swaps, the
// run covers what each hold condition guards: a CoFlow left out of one
// boundary's list, a fabric handed over partly drawn, a new fabric at
// another line rate, a returned vector that was written to, and a vector
// that only carries the returned one's content stamp.
func TestHeldScheduleMatchesFull(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	boundaries, reissued := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		hc := &heldCluster{rng: rand.New(rand.NewSource(seed)), ports: 6, space: coflow.NewIndexSpace()}
		rng := rand.New(rand.NewSource(seed + 100))
		held, _ := New(sched.DefaultParams())
		full, _ := New(sched.DefaultParams())
		rate := fabric.DefaultPortRate
		snaps := [2]*sched.Snapshot{
			{Fabric: fabric.New(hc.ports, rate)},
			{Fabric: fabric.New(hc.ports, rate)},
		}
		for step := 0; step < 400; step++ {
			now := coflow.Time(step) * delta
			quiet := step/20%2 == 1
			for n := hc.rng.Intn(3); !quiet && n > 0 && len(hc.live) < 12; n-- {
				hc.arrive(now)
			}
			if len(hc.live) > 0 && !quiet && hc.rng.Intn(10) == 0 {
				hc.swap(hc.rng.Intn(len(hc.live)))
			}
			active := hc.live
			if len(active) > 1 && rng.Intn(4) == 0 { // one CoFlow sits this boundary out
				k := rng.Intn(len(active))
				active = slices.Delete(slices.Clone(active), k, k+1)
			}
			if rng.Intn(40) == 0 {
				rate = fabric.DefaultPortRate / coflow.Rate(1+rng.Intn(2))
				snaps[0].Fabric, snaps[1].Fabric = fabric.New(hc.ports, rate), fabric.New(hc.ports, rate)
			}
			predraw := rng.Intn(12) == 0
			src, dst := coflow.PortID(rng.Intn(hc.ports)), coflow.PortID(rng.Intn(hc.ports))
			if v := snaps[0].Alloc; v != nil && rng.Intn(12) == 0 {
				d := sched.NewRateVec(1) // v's content stamp, none of its contents
				for d.ContentStamp() < v.ContentStamp() {
					d.Set(0, 1)
				}
				snaps[0].Alloc = d
			}
			for _, s := range snaps {
				s.Fabric.Reset()
				if predraw {
					s.Fabric.Allocate(src, dst, rate/2)
				}
				s.Now, s.Active = now, active
				s.FlowCap, s.CoFlowCap = hc.space.FlowCap(), hc.space.CoFlowCap()
			}
			full.forget()
			before := snaps[0].Alloc.ContentStamp()
			got, want := held.Schedule(snaps[0]), full.Schedule(snaps[1])
			if snaps[0].Alloc != nil && before == got.ContentStamp() {
				reissued++
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			if !got.Equal(want) {
				t.Fatalf("%s: allocations differ", where)
			}
			if !slices.Equal(held.last, full.last) {
				t.Fatalf("%s: placements %v, full path %v", where, held.last, full.last)
			}
			hc.advance(got, now, delta)
			if rng.Intn(12) == 0 {
				got.Set(rng.Intn(hc.space.FlowCap()+1), 1) // a caller writes to what it was handed
			}
		}
		boundaries += 400
	}
	t.Logf("%d of %d boundaries reissued the previous decision", reissued, boundaries)
	if reissued*10 < boundaries {
		t.Errorf("only %d of %d boundaries reissued: the run hardly reached the held path", reissued, boundaries)
	}
}
