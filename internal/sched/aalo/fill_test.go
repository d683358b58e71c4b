package aalo

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/queues"
	"saath/internal/sched"
)

// cmpQueued is every port's local order, as fillReference sorts by it:
// queue, then arrival, then CoFlow ID.
func cmpQueued(a, b queued) int {
	if a.queue != b.queue {
		return cmp.Compare(a.queue, b.queue)
	}
	if a.c.Arrived != b.c.Arrived {
		return cmp.Compare(a.c.Arrived, b.c.Arrived)
	}
	return cmp.Compare(a.c.ID(), b.c.ID())
}

// fillReference is fill as first written, the oracle fill is held to:
// the placements comparison-sorted by (queue, arrival, ID), every
// sendable flow dealt to its sender's list, and every flow of every list
// passed through PathFree.
func (a *Aalo) fillReference(snap *sched.Snapshot, alloc *sched.RateVec) {
	order := make([]queued, len(a.last))
	for i := range a.last {
		order[i] = a.last[i].queued
	}
	slices.SortStableFunc(order, cmpQueued)
	byPort := make([][]*coflow.Flow, snap.Fabric.NumPorts())
	for _, qc := range order {
		for _, f := range qc.c.SendableFlows() {
			byPort[f.Src] = append(byPort[f.Src], f)
		}
	}
	for p := range byPort {
		for _, f := range byPort[p] {
			r := snap.Fabric.PathFree(f.Src, f.Dst)
			if float64(r) <= eps {
				continue
			}
			alloc.Set(f.Idx, r)
			snap.Fabric.Allocate(f.Src, f.Dst, r)
		}
	}
}

// grant is one rate a vector holds, as its bits, in the order it was set.
type grant struct {
	idx  int
	bits uint64
}

func grants(v *sched.RateVec) []grant {
	var out []grant
	v.Range(func(idx int, r coflow.Rate) bool {
		out = append(out, grant{idx, math.Float64bits(float64(r))})
		return true
	})
	return out
}

// checkFill has a decide got afresh, then fills want — the same CoFlows
// on a fabric in the same state — by the reference from the placements
// Schedule just derived. The two vectors must hold the same rates, set
// in the same order, and the two fabrics the same residuals, bit for
// bit.
func checkFill(t *testing.T, where string, a *Aalo, got, want *sched.Snapshot) {
	t.Helper()
	a.forget()
	g := grants(a.Schedule(got))
	w := want.Allocation()
	a.fillReference(want, w)
	if ref := grants(w); !slices.Equal(g, ref) {
		t.Fatalf("%s: grants (flow, rate bits) %x, reference %x", where, g, ref)
	}
	for p := 0; p < got.Fabric.NumPorts(); p++ {
		port := coflow.PortID(p)
		ge, gi := math.Float64bits(float64(got.Fabric.EgressFree(port))), math.Float64bits(float64(got.Fabric.IngressFree(port)))
		we, wi := math.Float64bits(float64(want.Fabric.EgressFree(port))), math.Float64bits(float64(want.Fabric.IngressFree(port)))
		if ge != we || gi != wi {
			t.Fatalf("%s: port %d residuals (egress, ingress) %#x %#x, reference %#x %#x", where, p, ge, gi, we, wi)
		}
	}
}

// nearEps are the multiples of eps a draw leaves on a path or takes
// from it: around eps itself, by less than the float spacing at line
// rate in either direction and by more.
var nearEps = [...]float64{0.5, 0.99999, 1, 1.00001, 2, 1e3}

// draw takes capacity from the src→dst path of every fabric alike, as
// what a caller drew before handing the fabric over. Kind 0 closes the
// narrower end (the egress, when it is); kind 1 leaves the path
// nearEps[m]·eps; kind 2 takes nearEps[m]·eps from it for m below
// len(nearEps), so that a full sender granted the rest of that receiver
// is left with that much, and above that the fraction (m-5)/10 of what
// it has free.
func draw(fabs []*fabric.Fabric, kind, m int, src, dst coflow.PortID) {
	for _, f := range fabs {
		r := f.PathFree(src, dst)
		switch {
		case kind == 1:
			r -= coflow.Rate(nearEps[m%len(nearEps)] * eps)
		case kind == 2 && m < len(nearEps):
			r = min(r, coflow.Rate(nearEps[m]*eps))
		case kind == 2:
			r = r * coflow.Rate(min(m-5, 10)) / 10
		}
		if r > 0 {
			f.Allocate(src, dst, r)
		}
	}
}

// spreadParams puts heldCluster's CoFlows, of up to five 24 MB flows,
// over six queues rather than the default ladder's first two.
func spreadParams() sched.Params {
	p := sched.DefaultParams()
	p.Queues = queues.Config{NumQueues: 6, StartThreshold: 2 * coflow.MB, Growth: 2}
	return p
}

// TestFillMatchesReference holds fill to fillReference bit for bit
// through TestHeldScheduleMatchesFull's churn — arrivals, progress,
// completions, withheld flows released, swaps, a CoFlow left
// out of a boundary — on fabrics handed over partly drawn: an egress
// closed before the call, and residuals within a hair of eps. With the
// default ladder the CoFlows sit in the first queues; with spreadParams
// they spread over six. The run counts the calls that reached each case.
func TestFillMatchesReference(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	for _, tc := range []struct {
		name string
		p    sched.Params
	}{{"default", sched.DefaultParams()}, {"six-queues", spreadParams()}} {
		t.Run(tc.name, func(t *testing.T) {
			calls, multiQueue, closedEgress, hair := 0, 0, 0, 0
			for seed := int64(1); seed <= 6; seed++ {
				hc := &heldCluster{rng: rand.New(rand.NewSource(seed)), ports: 6, space: coflow.NewIndexSpace()}
				rng := rand.New(rand.NewSource(seed + 200))
				a, err := New(tc.p)
				if err != nil {
					t.Fatal(err)
				}
				snaps := [2]*sched.Snapshot{
					{Fabric: fabric.New(hc.ports, fabric.DefaultPortRate)},
					{Fabric: fabric.New(hc.ports, fabric.DefaultPortRate)},
				}
				fabs := []*fabric.Fabric{snaps[0].Fabric, snaps[1].Fabric}
				for step := 0; step < 300; step++ {
					now := coflow.Time(step) * delta
					for n := hc.rng.Intn(3); n > 0 && len(hc.live) < 12; n-- {
						hc.arrive(now)
					}
					if len(hc.live) > 0 && hc.rng.Intn(10) == 0 {
						hc.swap(hc.rng.Intn(len(hc.live)))
					}
					active := hc.live
					if len(active) > 1 && rng.Intn(4) == 0 {
						k := rng.Intn(len(active))
						active = slices.Delete(slices.Clone(active), k, k+1)
					}
					for _, f := range fabs {
						f.Reset()
					}
					for n := rng.Intn(4); n > 0; n-- {
						src, dst := coflow.PortID(rng.Intn(hc.ports)), coflow.PortID(rng.Intn(hc.ports))
						draw(fabs, rng.Intn(3), rng.Intn(16), src, dst)
					}
					for p := 0; p < hc.ports; p++ {
						e := float64(fabs[0].EgressFree(coflow.PortID(p)))
						if e <= eps {
							closedEgress++
						}
						if i := float64(fabs[0].IngressFree(coflow.PortID(p))); e > eps/2 && e <= 2*eps || i > eps/2 && i <= 2*eps {
							hair++
						}
					}
					for _, s := range snaps {
						s.Now, s.Active = now, active
						s.FlowCap, s.CoFlowCap = hc.space.FlowCap(), hc.space.CoFlowCap()
					}
					checkFill(t, fmt.Sprintf("seed %d step %d", seed, step), a, snaps[0], snaps[1])
					calls++
					if len(a.last) > 0 && slices.ContainsFunc(a.last, func(p placed) bool { return p.queue != a.last[0].queue }) {
						multiQueue++
					}
					hc.advance(snaps[0].Alloc, now, delta)
				}
			}
			t.Logf("%d calls: %d over several queues, %d egresses closed and %d residuals within a hair of eps before a call",
				calls, multiQueue, closedEgress, hair)
			if multiQueue*4 < calls || closedEgress == 0 || hair == 0 {
				t.Errorf("the run hardly reached the cases it is for: %d of %d calls over several queues, %d closed egresses, %d residuals near eps",
					multiQueue, calls, closedEgress, hair)
			}
		})
	}
}

// FuzzAaloFill holds fill to fillReference bit for bit over one Aalo
// reused across calls, as a run reuses it.
//
// The input is a header byte — by its low three bits the port count
// less two, by the next three the queue count less one (the ladder
// starts at 1 MB and doubles) — followed by (op, a, b) triples. The op's
// low two bits pick:
//   - 0: a new CoFlow, (op>>2)&3 ms after the last one (0: a tie, which
//     the ID breaks), with one flow a→b of op>>4 + 1 MB;
//   - 1: one more flow a→b, of op>>2 + 1 MB, on the newest CoFlow;
//   - 2: flow b of CoFlow a: by op's bit 2 its data is withheld or
//     released; otherwise op>>3 half-MBs more of it are sent (31: all
//     of it, so it is done);
//   - 3: by (op>>2)&3, a draw from both fabrics on the a→b path (draw's
//     kinds 0-2, with m = op>>4), or, at 3, a call — both fill their
//     copy of the live CoFlows and must agree — after which the fabrics
//     are full again.
//
// After the last triple the live CoFlows are one more call. The committed
// corpus has CoFlows over several queues sharing senders, a closed
// egress, residuals a hair either side of eps, withheld and done flows.
func FuzzAaloFill(f *testing.F) {
	f.Add([]byte{0x0a, 0x00, 0, 4, 0x10, 0, 5, 0x02 | 8<<3, 0, 0, 0x0f, 0, 0, 0x00, 1, 4})
	f.Add([]byte{0x12, 0x00, 0, 2, 0x04, 0, 3, 0x13, 0, 3, 0x0f, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 3<<10 {
			t.Skip()
		}
		ports := int(in[0]&7) + 2
		p := sched.DefaultParams()
		p.Queues = queues.Config{NumQueues: int(in[0]>>3&7) + 1, StartThreshold: coflow.MB, Growth: 2}
		a, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		fabs := []*fabric.Fabric{fabric.New(ports, fabric.DefaultPortRate), fabric.New(ports, fabric.DefaultPortRate)}
		var cs []*fuzzCoFlow
		call := func(where string) {
			var active []*coflow.CoFlow
			space := coflow.NewIndexSpace()
			for _, fc := range cs {
				if c := fc.build(); c != nil {
					space.Assign(c)
					active = append(active, c)
				}
			}
			snap := func(f *fabric.Fabric) *sched.Snapshot {
				return &sched.Snapshot{Active: active, Fabric: f, FlowCap: space.FlowCap(), CoFlowCap: space.CoFlowCap()}
			}
			checkFill(t, where, a, snap(fabs[0]), snap(fabs[1]))
			for _, f := range fabs {
				f.Reset()
			}
		}
		for at, ops := 1, in[1:]; len(ops) >= 3; at, ops = at+3, ops[3:] {
			op, x, y := ops[0], int(ops[1]), int(ops[2])
			src, dst := coflow.PortID(x%ports), coflow.PortID(y%ports)
			switch op & 3 {
			case 0:
				var arrival coflow.Time
				if n := len(cs); n > 0 {
					arrival = cs[n-1].arrival + coflow.Time(op>>2&3)*coflow.Millisecond
				}
				cs = append(cs, &fuzzCoFlow{id: coflow.CoFlowID(len(cs) + 1), arrival: arrival})
				cs[len(cs)-1].add(src, dst, coflow.Bytes(op>>4+1)*coflow.MB)
			case 1:
				if len(cs) == 0 {
					cs = append(cs, &fuzzCoFlow{id: 1})
				}
				cs[len(cs)-1].add(src, dst, coflow.Bytes(op>>2+1)*coflow.MB)
			case 2:
				if len(cs) == 0 {
					continue
				}
				fc := cs[x%len(cs)]
				fl := &fc.flows[y%len(fc.flows)]
				switch v := coflow.Bytes(op >> 3); {
				case op&4 != 0:
					fl.withheld = !fl.withheld
				case v == 31:
					fl.sent = fl.size
				default:
					fl.sent = min(fl.sent+v*coflow.MB/2, fl.size)
				}
			case 3:
				if kind := int(op >> 2 & 3); kind < 3 {
					draw(fabs, kind, int(op>>4), src, dst)
				} else {
					call(fmt.Sprintf("call at byte %d", at))
				}
			}
		}
		call("final call")
	})
}

// fuzzCoFlow is one CoFlow of a FuzzAaloFill script, rebuilt for every
// call from its flows' state.
type fuzzCoFlow struct {
	id      coflow.CoFlowID
	arrival coflow.Time
	flows   []fuzzFlow
}

type fuzzFlow struct {
	src, dst   coflow.PortID
	size, sent coflow.Bytes
	withheld   bool
}

func (fc *fuzzCoFlow) add(src, dst coflow.PortID, size coflow.Bytes) {
	fc.flows = append(fc.flows, fuzzFlow{src: src, dst: dst, size: size})
}

// build returns the CoFlow as the script left it, or nil once every
// flow is done.
func (fc *fuzzCoFlow) build() *coflow.CoFlow {
	spec := &coflow.Spec{ID: fc.id, Arrival: fc.arrival}
	for _, fl := range fc.flows {
		spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: fl.src, Dst: fl.dst, Size: fl.size})
	}
	c := coflow.New(spec)
	c.Arrived = fc.arrival
	for i, f := range c.Flows {
		fl := fc.flows[i]
		c.Progress(f, fl.sent)
		if fl.sent >= fl.size {
			c.Complete(f, 0)
		}
		c.SetAvailable(f, !fl.withheld)
	}
	if c.RefreshDone() {
		return nil
	}
	return c
}
