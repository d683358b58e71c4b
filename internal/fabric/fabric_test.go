package fabric

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"saath/internal/coflow"
)

func TestNewAndReset(t *testing.T) {
	f := New(4, DefaultPortRate)
	if f.NumPorts() != 4 || f.PortRate() != DefaultPortRate {
		t.Fatalf("shape: %d ports rate %v", f.NumPorts(), f.PortRate())
	}
	if !f.Full() {
		t.Fatal("a new fabric is not full")
	}
	f.Allocate(0, 1, DefaultPortRate/2)
	if f.Full() {
		t.Fatal("full after an allocation")
	}
	f.Release(0, 1, DefaultPortRate/2)
	if f.Full() {
		t.Fatal("Full vouches for a fabric that was drawn from since its Reset")
	}
	f.Allocate(0, 1, DefaultPortRate/2)
	f.Reset()
	if f.EgressFree(0) != DefaultPortRate || f.IngressFree(1) != DefaultPortRate || !f.Full() {
		t.Fatal("Reset did not restore capacity")
	}
	f.Reset() // nothing drawn since: left as it is
	if f.EgressFree(0) != DefaultPortRate || !f.Full() {
		t.Fatal("a second Reset disturbed a full fabric")
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct {
		ports int
		rate  coflow.Rate
	}{{0, 1}, {-1, 1}, {4, 0}, {4, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %v) did not panic", tc.ports, tc.rate)
				}
			}()
			New(tc.ports, tc.rate)
		}()
	}
}

func TestAllocateRelease(t *testing.T) {
	f := New(4, 100)
	f.Allocate(0, 1, 60)
	if f.EgressFree(0) != 40 || f.IngressFree(1) != 40 {
		t.Fatalf("free after alloc: %v / %v", f.EgressFree(0), f.IngressFree(1))
	}
	if f.PathFree(0, 2) != 40 { // limited by src egress
		t.Fatalf("PathFree = %v", f.PathFree(0, 2))
	}
	if f.PathFree(2, 1) != 40 { // limited by dst ingress
		t.Fatalf("PathFree = %v", f.PathFree(2, 1))
	}
	f.Release(0, 1, 60)
	if f.EgressFree(0) != 100 || f.IngressFree(1) != 100 {
		t.Fatal("Release did not restore")
	}
	// Release clamps at line rate.
	f.Release(0, 1, 500)
	if f.EgressFree(0) != 100 {
		t.Fatal("Release exceeded line rate")
	}
}

func TestAllocateOversubscribePanics(t *testing.T) {
	f := New(2, 100)
	f.Allocate(0, 1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscription did not panic")
		}
	}()
	f.Allocate(0, 1, 1)
}

func TestAllocateNegativePanics(t *testing.T) {
	f := New(2, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("negative allocation did not panic")
		}
	}()
	f.Allocate(0, 1, -1)
}

func coflow2x2() *coflow.CoFlow {
	return coflow.New(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 2, Size: 100},
		{Src: 0, Dst: 3, Size: 100},
		{Src: 1, Dst: 2, Size: 100},
		{Src: 1, Dst: 3, Size: 100},
	}})
}

// coflowAvailable is the all-or-none admission test as a scan of the
// CoFlow's sendable flows, the oracle SignatureAvailable is held to:
// every port a sendable flow touches has at least 1e-3 of residual.
func coflowAvailable(f *Fabric, c *coflow.CoFlow) bool {
	const eps = 1e-3 // below 1 mB/s a port is effectively busy
	for _, p := range c.SendablePorts() {
		if float64(f.egressFree[p.Src]) < eps || float64(f.ingressFree[p.Dst]) < eps {
			return false
		}
	}
	return true
}

// signature is the port-direction signature sched.ContentionIndex builds
// from a CoFlow's sendable ports — bit 2p for egress p, 2p+1 for
// ingress p — with trailing zero words trimmed.
func signature(ports []coflow.PortPair) []uint64 {
	var sig []uint64
	set := func(b int) {
		for len(sig) <= b/64 {
			sig = append(sig, 0)
		}
		sig[b/64] |= 1 << (b % 64)
	}
	for _, p := range ports {
		set(2 * int(p.Src))
		set(2*int(p.Dst) + 1)
	}
	return sig
}

// admits asks SignatureAvailable about c's signature, and fails the test
// unless the flow scan agrees.
func admits(t *testing.T, f *Fabric, c *coflow.CoFlow) bool {
	t.Helper()
	got, want := f.SignatureAvailable(signature(c.SendablePorts())), coflowAvailable(f, c)
	if got != want {
		t.Fatalf("SignatureAvailable = %v, the flow scan says %v", got, want)
	}
	return got
}

func TestCoFlowAvailable(t *testing.T) {
	f := New(4, 100)
	c := coflow2x2()
	if !admits(t, f, c) {
		t.Fatal("fresh fabric should admit coflow")
	}
	f.Allocate(0, 0, 100) // saturate egress 0 (ingress 0 is unused by c)
	if admits(t, f, c) {
		t.Fatal("coflow admitted with saturated port")
	}
	// A coflow whose flows avoid port 0 is still admissible.
	other := coflow.New(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Src: 1, Dst: 3, Size: 1}}})
	if !admits(t, f, other) {
		t.Fatal("unrelated coflow rejected")
	}
	// Done flows do not count.
	c.Complete(c.Flows[0], 0)
	c.Complete(c.Flows[1], 0)
	if !admits(t, f, c) {
		t.Fatal("coflow with only done flows at busy port rejected")
	}
}

func TestCoFlowAvailableSkipsUnavailableFlows(t *testing.T) {
	f := New(4, 100)
	f.Allocate(0, 0, 100)
	c := coflow2x2()
	for _, fl := range c.Flows {
		if fl.Src == 0 {
			c.SetAvailable(fl, false)
		}
	}
	if !admits(t, f, c) {
		t.Fatal("unavailable flows should not block admission")
	}
}

// TestSignatureAdmissionEdge pins the admission edge: on each direction
// of one port, at residuals of 0, one ulp under 1e-3, exactly 1e-3 (not
// open, yet admitted), one ulp over and line rate, SignatureAvailable
// answers as the flow scan does — on fabrics of one word and of several
// (more than 32 ports), for a CoFlow through the direction under test
// and, by a signature shorter than the fabric's bitset, one on port 2.
func TestSignatureAdmissionEdge(t *testing.T) {
	residuals := []struct {
		name  string
		r     coflow.Rate
		admit bool
	}{
		{"zero", 0, false},
		{"eps-ulp", coflow.Rate(math.Nextafter(1e-3, 0)), false},
		{"eps", 1e-3, true},
		{"eps+ulp", coflow.Rate(math.Nextafter(1e-3, 1)), true},
		{"line-rate", DefaultPortRate, true},
	}
	for _, ports := range []int{4, 33, 70} {
		for _, port := range []coflow.PortID{1, coflow.PortID(ports - 1)} {
			for _, ingress := range []bool{false, true} {
				for _, tc := range residuals {
					f := New(ports, DefaultPortRate)
					// Leave exactly tc.r at the direction under test: close the
					// path through it, then hand tc.r back to both its ends (the
					// other end, at port 0, is then at tc.r too).
					src, dst := port, coflow.PortID(0)
					if ingress {
						src, dst = 0, port
					}
					if tc.r < DefaultPortRate {
						f.Allocate(src, dst, DefaultPortRate)
						f.Release(src, dst, tc.r)
					}
					if got := f.EgressFree(src); got != tc.r {
						t.Fatalf("set-up left %v, want %v", got, tc.r)
					}
					if open := f.OpenEnds(signature([]coflow.PortPair{{Src: int32(src), Dst: int32(dst)}})); open != (float64(tc.r) > openEps) {
						t.Fatalf("%d ports, port %d ingress=%v at %s: open %v", ports, port, ingress, tc.name, open)
					}
					// A CoFlow through the direction under test (its other end at
					// port 2, at line rate), and one on port 2 alone.
					end := coflow.FlowSpec{Src: port, Dst: 2, Size: 1}
					if ingress {
						end.Src, end.Dst = 2, port
					}
					through := coflow.New(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 2, Dst: 2, Size: 1}, end}})
					if got := admits(t, f, through); got != tc.admit {
						t.Fatalf("%d ports, port %d ingress=%v at %s: admitted %v, want %v", ports, port, ingress, tc.name, got, tc.admit)
					}
					low := coflow.New(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Src: 2, Dst: 2, Size: 1}}})
					if sig := signature(low.SendablePorts()); len(sig) >= len(f.open) && len(f.open) > 1 {
						t.Fatalf("signature of %d words is not shorter than the %d-word bitset", len(sig), len(f.open))
					}
					if !admits(t, f, low) {
						t.Fatalf("%d ports, port %d ingress=%v at %s: a CoFlow on port 2 refused", ports, port, ingress, tc.name)
					}
				}
			}
		}
	}
}

func TestEqualRateForCoFlow(t *testing.T) {
	f := New(4, 100)
	c := coflow2x2()
	// Each of ports 0..3 carries 2 flows -> equal rate 100/2 = 50.
	if got := f.EqualRateForCoFlow(c); got != 50 {
		t.Fatalf("equal rate = %v, want 50", got)
	}
	// Constrain ingress 2 to 40 -> rate 40/2 = 20.
	f.Allocate(1, 2, 60)
	// (that also took 60 from egress 1: free 40, 2 flows -> 20)
	if got := f.EqualRateForCoFlow(c); got != 20 {
		t.Fatalf("equal rate = %v, want 20", got)
	}
}

func TestMaxMinFairSingleBottleneck(t *testing.T) {
	f := New(4, 100)
	// Three flows out of port 0: fair share 33.3 each.
	d := []Demand{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}}
	rates := f.MaxMinFairInto(nil, d)
	for i, r := range rates {
		if math.Abs(float64(r)-100.0/3) > 1e-6 {
			t.Fatalf("rate[%d] = %v, want 33.33", i, r)
		}
	}
}

func TestMaxMinFairTwoLevels(t *testing.T) {
	f := New(4, 100)
	// Flow A: 0->2, Flow B: 0->3, Flow C: 1->3.
	// Port 0 egress splits A,B at 50; port 3 ingress has B(50)+C.
	// C should get the leftover 50 at port 3, then rise to port 1's
	// free egress... port 3 ingress caps B+C at 100, so C gets 50.
	d := []Demand{{Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 3}}
	rates := f.MaxMinFairInto(nil, d)
	want := []float64{50, 50, 50}
	for i := range rates {
		if math.Abs(float64(rates[i])-want[i]) > 1e-6 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMaxMinFairRespectsCaps(t *testing.T) {
	f := New(4, 100)
	d := []Demand{{Src: 0, Dst: 1, Cap: 10}, {Src: 0, Dst: 2}}
	rates := f.MaxMinFairInto(nil, d)
	if math.Abs(float64(rates[0])-10) > 1e-6 {
		t.Fatalf("capped rate = %v", rates[0])
	}
	if math.Abs(float64(rates[1])-90) > 1e-6 {
		t.Fatalf("uncapped rate = %v, want 90 (reclaims slack)", rates[1])
	}
}

func TestMaxMinFairEmptyAndSaturated(t *testing.T) {
	f := New(2, 100)
	if got := f.MaxMinFairInto(nil, nil); len(got) != 0 {
		t.Fatal("nil demands")
	}
	f.Allocate(0, 1, 100)
	rates := f.MaxMinFairInto(nil, []Demand{{Src: 0, Dst: 1}})
	if rates[0] != 0 {
		t.Fatalf("saturated rate = %v", rates[0])
	}
}

// TestMaxMinFairProperties validates the two defining max-min
// invariants on random instances: feasibility (no port over capacity)
// and maximality (every flow is stopped by a saturated port or a cap).
func TestMaxMinFairProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		nPorts := rng.Intn(6) + 2
		f := New(nPorts, 100)
		nd := rng.Intn(12) + 1
		demands := make([]Demand, nd)
		for i := range demands {
			demands[i] = Demand{
				Src: coflow.PortID(rng.Intn(nPorts)),
				Dst: coflow.PortID(rng.Intn(nPorts)),
			}
			if rng.Intn(3) == 0 {
				demands[i].Cap = coflow.Rate(rng.Intn(80) + 1)
			}
		}
		rates := f.MaxMinFairInto(nil, demands)

		eg := make([]float64, nPorts)
		in := make([]float64, nPorts)
		for i, d := range demands {
			eg[d.Src] += float64(rates[i])
			in[d.Dst] += float64(rates[i])
			if d.Cap > 0 && float64(rates[i]) > float64(d.Cap)+1e-6 {
				t.Fatalf("trial %d: flow %d exceeds cap: %v > %v", trial, i, rates[i], d.Cap)
			}
			if rates[i] < 0 {
				t.Fatalf("trial %d: negative rate %v", trial, rates[i])
			}
		}
		for p := 0; p < nPorts; p++ {
			if eg[p] > 100+1e-4 || in[p] > 100+1e-4 {
				t.Fatalf("trial %d: port %d oversubscribed eg=%v in=%v", trial, p, eg[p], in[p])
			}
		}
		// Maximality: each flow is limited by a saturated src, dst, or cap.
		for i, d := range demands {
			satSrc := eg[d.Src] > 100-1e-3
			satDst := in[d.Dst] > 100-1e-3
			capped := d.Cap > 0 && float64(rates[i]) >= float64(d.Cap)-1e-3
			if !satSrc && !satDst && !capped {
				t.Fatalf("trial %d: flow %d (rate %v) not maximal (eg=%v in=%v cap=%v)",
					trial, i, rates[i], eg[d.Src], in[d.Dst], d.Cap)
			}
		}
	}
}

// TestOpenBitsetTracksResiduals runs random Allocate / Release / Reset
// sequences — draws to nothing, to within openEps of nothing, to half,
// and releases back — and checks after every step that the open bitset
// says exactly which port directions have more than openEps of
// residual, and that OpenEnds answers as that openness recomputed from
// EgressFree/IngressFree does for random signatures, longer and
// shorter than the bitset.
func TestOpenBitsetTracksResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		ports := 1 + rng.Intn(100)
		f := New(ports, DefaultPortRate)
		type draw struct {
			src, dst coflow.PortID
			r        coflow.Rate
		}
		var drawn []draw
		for step := 0; step < 200; step++ {
			src, dst := coflow.PortID(rng.Intn(ports)), coflow.PortID(rng.Intn(ports))
			switch free := f.PathFree(src, dst); rng.Intn(6) {
			case 0:
				f.Allocate(src, dst, free)
				drawn = append(drawn, draw{src, dst, free})
			case 1:
				r := max(free-coflow.Rate(openEps/2), 0)
				f.Allocate(src, dst, r)
				drawn = append(drawn, draw{src, dst, r})
			case 2:
				f.Allocate(src, dst, free/2)
				drawn = append(drawn, draw{src, dst, free / 2})
			case 3, 4:
				if len(drawn) > 0 {
					i := rng.Intn(len(drawn))
					d := drawn[i]
					f.Release(d.src, d.dst, d.r)
					drawn = append(drawn[:i], drawn[i+1:]...)
				}
			case 5:
				if rng.Intn(4) == 0 {
					f.Reset()
					drawn = drawn[:0]
				}
			}
			open := func(b int) bool {
				p := coflow.PortID(b / 2)
				if int(p) >= ports {
					return false
				}
				if b%2 == 0 {
					return float64(f.EgressFree(p)) > openEps
				}
				return float64(f.IngressFree(p)) > openEps
			}
			for b := 0; b < 64*len(f.open); b++ {
				if got := f.open[b/64]>>(b%64)&1 == 1; got != open(b) {
					t.Fatalf("trial %d step %d: bit %d (port %d, ingress %v) open = %v, residuals say %v",
						trial, step, b, b/2, b%2 == 1, got, open(b))
				}
			}
			sig := make([]uint64, rng.Intn(len(f.open)+2))
			var eg, in bool
			for b := 0; b < 64*len(sig); b++ {
				if rng.Intn(40) == 0 {
					sig[b/64] |= 1 << (b % 64)
					if open(b) {
						eg, in = eg || b%2 == 0, in || b%2 == 1
					}
				}
			}
			if got := f.OpenEnds(sig); got != (eg && in) {
				t.Fatalf("trial %d step %d: OpenEnds(%x) = %v, want %v", trial, step, sig, got, eg && in)
			}
		}
	}
}

// TestResetMatchesNew: Reset restores only the ports drawn from since
// the last Reset, so after random Allocate/Release/Reset sequences —
// zero draws, full draws, draws released back to line rate and drawn
// again, fabrics from one port to past two words of ports — every
// residual, the open bitset and Full must be exactly those of a fabric
// just built by New.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		ports := 1 + rng.Intn(150)
		rate := DefaultPortRate * coflow.Rate(1+rng.Intn(3))
		f, fresh := New(ports, rate), New(ports, rate)
		for step := 0; step < 300; step++ {
			src, dst := coflow.PortID(rng.Intn(ports)), coflow.PortID(rng.Intn(ports))
			switch free := f.PathFree(src, dst); rng.Intn(5) {
			case 0:
				f.Allocate(src, dst, free)
			case 1:
				f.Allocate(src, dst, free*coflow.Rate(rng.Float64()))
			case 2:
				f.Allocate(src, dst, 0)
			case 3:
				f.Release(src, dst, rate*coflow.Rate(rng.Float64()))
			case 4:
				f.Reset()
				if !f.Full() {
					t.Fatalf("trial %d step %d: not Full after Reset", trial, step)
				}
				for p := coflow.PortID(0); int(p) < ports; p++ {
					if f.EgressFree(p) != fresh.EgressFree(p) || f.IngressFree(p) != fresh.IngressFree(p) {
						t.Fatalf("trial %d step %d: port %d residuals %v/%v after Reset, New has %v/%v",
							trial, step, p, f.EgressFree(p), f.IngressFree(p), fresh.EgressFree(p), fresh.IngressFree(p))
					}
				}
				if !slices.Equal(f.open, fresh.open) {
					t.Fatalf("trial %d step %d: open bitset %x after Reset, New has %x", trial, step, f.open, fresh.open)
				}
			}
		}
	}
}
