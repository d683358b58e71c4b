package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// coflowAvailable is all-or-none admission as the flow scan it was
// before it read the signature: every port a sendable flow touches has
// at least 1e-3 of residual.
func coflowAvailable(fab *fabric.Fabric, c *coflow.CoFlow) bool {
	const eps = 1e-3 // below 1 mB/s a port is effectively busy
	for _, p := range c.SendablePorts() {
		if float64(fab.EgressFree(coflow.PortID(p.Src))) < eps || float64(fab.IngressFree(coflow.PortID(p.Dst))) < eps {
			return false
		}
	}
	return true
}

// serveReference is serve with admission by the flow scan and work
// conservation by the walk that asks every flow: the oracle serve is
// held to. It returns how many flows the run skip passes over and how
// many CoFlows it admits with a port direction at exactly 1e-3 — closed
// to work conservation, open to admission.
func (s *Saath) serveReference(fab *fabric.Fabric, bucket []*coflow.CoFlow, alloc *sched.RateVec) (runSkipped, exactEps int) {
	var missed []*coflow.CoFlow
	for _, c := range bucket {
		if !coflowAvailable(fab, c) {
			missed = append(missed, c)
			continue
		}
		for _, p := range c.SendablePorts() {
			if fab.EgressFree(coflow.PortID(p.Src)) == 1e-3 || fab.IngressFree(coflow.PortID(p.Dst)) == 1e-3 {
				exactEps++
				break
			}
		}
		rate := fab.EqualRateForCoFlow(c)
		for _, f := range c.SendableFlows() {
			if tr := &s.tracks[f.Idx]; tr.estCap > 0 && tr.estCap < rate {
				rate = tr.estCap
			}
		}
		if rate <= 0 {
			missed = append(missed, c)
			continue
		}
		for _, f := range c.SendableFlows() {
			alloc.Set(f.Idx, rate)
			fab.Allocate(f.Src, f.Dst, rate)
			s.recordAllocation(c, f, rate)
		}
	}
	if s.params.WorkConservation {
		runSkipped = s.workConserveUnfiltered(fab, missed, alloc)
	}
	return runSkipped, exactEps
}

// script hands out a fuzz input's bytes one decision at a time, and
// zeros once they run out.
type script []byte

func (s *script) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// leave draws the src→dst path of every fabric down to r: the narrower
// end is left with exactly r, the wider one with its lead over the
// narrower plus r.
func leave(fabs []*fabric.Fabric, src, dst coflow.PortID, r coflow.Rate) {
	for _, f := range fabs {
		if free := f.PathFree(src, dst); free > r {
			f.Allocate(src, dst, free)
			f.Release(src, dst, r)
		}
	}
}

// checkServe builds the CoFlows and fabric an input describes and holds
// serve, queue by queue, to serveReference on a twin Saath and fabric:
// the grants (flow and rate bits, in the order set), every residual by
// its bits, and the rated list. It returns serveReference's counts.
//
// The input is read a byte per decision (see script): the port count
// (2-71) and the CoFlow count (1-10); per CoFlow its layout — reducer-
// major, mapper-major or scattered — 1-6 mappers and 1-6 reducers and
// their ports (scattered then draws each flow's two ports), then one byte
// per flow: 0 finished (by Complete, so the compact view goes ragged), 1
// withheld (the sendable view apart from the pending one), 2 given a
// straggler cap of a quarter of line rate; then up to 2·ports draws of
// (src, dst, kind) — path closed, left at exactly 1e-3, 1e-3 − ulp,
// 1e-3 + ulp or 5e-4, halved, or untouched; then where the CoFlows, in
// order, split into two queues.
func checkServe(t *testing.T, in []byte) (runSkipped, exactEps int) {
	t.Helper()
	sc := script(in)
	ports := 2 + sc.next(70)
	space := coflow.NewIndexSpace()
	var active []*coflow.CoFlow
	capped := map[int]bool{}
	for n, id := 1+sc.next(10), 1; id <= n; id++ {
		layout, mappers, reducers := sc.next(3), 1+sc.next(6), 1+sc.next(6)
		spec := &coflow.Spec{ID: coflow.CoFlowID(id)}
		add := func(src, dst int) {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: coflow.PortID(src), Dst: coflow.PortID(dst), Size: coflow.MB})
		}
		srcs, dsts := make([]int, mappers), make([]int, reducers)
		for i := range srcs {
			srcs[i] = sc.next(ports)
		}
		for i := range dsts {
			dsts[i] = sc.next(ports)
		}
		switch layout {
		case 0: // reducer-major: one run of mappers per reducer
			for _, dst := range dsts {
				for _, src := range srcs {
					add(src, dst)
				}
			}
		case 1: // mapper-major
			for _, src := range srcs {
				for _, dst := range dsts {
					add(src, dst)
				}
			}
		case 2: // scattered
			for range mappers * reducers {
				add(sc.next(ports), sc.next(ports))
			}
		}
		c := coflow.New(spec)
		space.Assign(c)
		var done []*coflow.Flow
		for _, f := range c.Flows {
			switch sc.next(8) {
			case 0:
				c.Progress(f, f.Size)
				done = append(done, f)
			case 1:
				c.SetAvailable(f, false)
			case 2:
				capped[f.Idx] = true
			}
		}
		c.SendablePorts() // a fresh summary, which Complete cuts the flows out of in place
		for _, f := range done {
			c.Complete(f, 0)
		}
		if len(c.SendableFlows()) > 0 {
			active = append(active, c)
		}
	}
	fabs := []*fabric.Fabric{fabric.New(ports, fabric.DefaultPortRate), fabric.New(ports, fabric.DefaultPortRate)}
	for d := sc.next(2*ports + 1); d > 0; d-- {
		src, dst := coflow.PortID(sc.next(ports)), coflow.PortID(sc.next(ports))
		switch sc.next(8) {
		case 0:
			leave(fabs, src, dst, 0)
		case 1:
			leave(fabs, src, dst, 1e-3)
		case 2:
			leave(fabs, src, dst, coflow.Rate(math.Nextafter(1e-3, 0)))
		case 3:
			leave(fabs, src, dst, coflow.Rate(math.Nextafter(1e-3, 1)))
		case 4:
			leave(fabs, src, dst, 5e-4)
		case 5:
			leave(fabs, src, dst, fabs[0].PathFree(src, dst)/2)
		}
	}
	split := sc.next(len(active) + 1)
	queues := [][]*coflow.CoFlow{active[:split], active[split:]}

	var allocs [2]*sched.RateVec
	var saaths [2]*Saath
	for side := range saaths {
		s := newSaath(t, nil)
		snap := &sched.Snapshot{Active: active, Fabric: fabs[side], FlowCap: space.FlowCap(), CoFlowCap: space.CoFlowCap()}
		s.growScratch(snap)
		for idx := range capped {
			s.tracks[idx].estCap = fabric.DefaultPortRate / 4
		}
		s.cindex.Sync(active)
		alloc := snap.Allocation()
		for _, bucket := range queues {
			if side == 0 {
				s.serve(fabs[0], bucket, alloc)
			} else {
				skipped, exact := s.serveReference(fabs[1], bucket, alloc)
				runSkipped, exactEps = runSkipped+skipped, exactEps+exact
			}
		}
		allocs[side], saaths[side] = alloc, s
	}
	if g, w := grants(allocs[0]), grants(allocs[1]); !slices.Equal(g, w) {
		t.Fatalf("grants (flow, rate bits) %x, reference %x", g, w)
	}
	for p := 0; p < ports; p++ {
		port := coflow.PortID(p)
		ge, gi := math.Float64bits(float64(fabs[0].EgressFree(port))), math.Float64bits(float64(fabs[0].IngressFree(port)))
		we, wi := math.Float64bits(float64(fabs[1].EgressFree(port))), math.Float64bits(float64(fabs[1].IngressFree(port)))
		if ge != we || gi != wi {
			t.Fatalf("port %d residuals (egress, ingress) %#x %#x, reference %#x %#x", p, ge, gi, we, wi)
		}
	}
	if !slices.Equal(saaths[0].rated, saaths[1].rated) {
		t.Fatalf("rated %v, reference %v", saaths[0].rated, saaths[1].rated)
	}
	return runSkipped, exactEps
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

// TestServeMatchesReference runs checkServe on 400 random inputs and
// checks that they reached what it is for: flows passed over in a
// closed receiver's run, and CoFlows admitted at exactly 1e-3.
func TestServeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	runSkipped, exactEps := 0, 0
	for trial := 0; trial < 400; trial++ {
		in := make([]byte, 64+rng.Intn(512))
		rng.Read(in)
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			skipped, exact := checkServe(t, in)
			runSkipped, exactEps = runSkipped+skipped, exactEps+exact
		})
	}
	t.Logf("%d flows passed over in a closed receiver's run, %d CoFlows admitted at exactly 1e-3", runSkipped, exactEps)
	if runSkipped == 0 || exactEps == 0 {
		t.Errorf("%d run skips, %d exact-eps admissions: the run never reached one", runSkipped, exactEps)
	}
}

// FuzzWorkConserve holds admission and work conservation (serve) to the
// flow scan and the walk that asks every flow (serveReference) bit for
// bit, on the CoFlows and fabric an input describes (checkServe). The
// committed corpus has receivers closed partway through reducer-major
// runs, residuals at exactly 1e-3 and a hair either side, and finished
// and withheld flows in every layout.
func FuzzWorkConserve(f *testing.F) {
	// Eight ports. C1 reducer-major, mappers 0-2 to reducers 5, 6, 7;
	// C2 one flow 3→5, admitted ahead of C1, which misses on the closed
	// path 4→6: C1's runs to 5 and 6 are skipped and 0→7 granted.
	f.Add([]byte{6, 1, 0, 2, 2, 0, 1, 2, 5, 6, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 0, 3, 5, 7, 1, 4, 6, 0, 0})
	// Eight ports, one mapper-major CoFlow 0→2, 1→2, admitted with path
	// 0→3 left at exactly 1e-3.
	f.Add([]byte{6, 0, 1, 1, 0, 0, 1, 2, 7, 7, 1, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 4<<10 {
			t.Skip()
		}
		checkServe(t, in)
	})
}
