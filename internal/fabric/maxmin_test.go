package fabric

import (
	"math"
	"math/rand"
	"testing"

	"saath/internal/coflow"
)

// maxMinFairReference is progressive filling as a round-by-round walk
// over every demand: each round raises every active demand's rate and
// both its ports' residuals by the level, then scans every demand for
// the ones to freeze. MaxMinFairInto must return its rates bit for bit.
func maxMinFairReference(f *Fabric, demands []Demand) []coflow.Rate {
	rates := make([]coflow.Rate, len(demands))
	if len(demands) == 0 {
		return rates
	}
	egress := append([]coflow.Rate(nil), f.egressFree...)
	ingress := append([]coflow.Rate(nil), f.ingressFree...)
	egCount := make([]int, f.numPorts)
	inCount := make([]int, f.numPorts)
	active := make([]bool, len(demands))
	remaining := 0
	for i := range demands {
		active[i] = true
		remaining++
		egCount[demands[i].Src]++
		inCount[demands[i].Dst]++
	}

	for remaining > 0 {
		level := coflow.Rate(-1)
		update := func(candidate coflow.Rate) {
			if candidate < 0 {
				candidate = 0
			}
			if level < 0 || candidate < level {
				level = candidate
			}
		}
		for p := 0; p < f.numPorts; p++ {
			if egCount[p] > 0 {
				update(egress[p] / coflow.Rate(egCount[p]))
			}
			if inCount[p] > 0 {
				update(ingress[p] / coflow.Rate(inCount[p]))
			}
		}
		for i, d := range demands {
			if active[i] && d.Cap > 0 {
				update(d.Cap - rates[i])
			}
		}
		if level < 0 {
			break
		}
		for i, d := range demands {
			if !active[i] {
				continue
			}
			rates[i] += level
			egress[d.Src] -= level
			ingress[d.Dst] -= level
		}
		const eps = 1e-6
		for i, d := range demands {
			if !active[i] {
				continue
			}
			saturated := float64(egress[d.Src]) <= eps || float64(ingress[d.Dst]) <= eps
			capped := d.Cap > 0 && rates[i] >= d.Cap-coflow.Rate(eps)
			if saturated || capped {
				active[i] = false
				remaining--
				egCount[d.Src]--
				inCount[d.Dst]--
			}
		}
		if level == 0 {
			allZero := true
			for i := range demands {
				if active[i] {
					allZero = false
					break
				}
			}
			if allZero {
				break
			}
		}
	}
	return rates
}

// checkMaxMinBits compares MaxMinFairInto with the reference on the
// fabric as it stands, bit for bit, and leaves the fabric unchanged.
func checkMaxMinBits(t *testing.T, f *Fabric, demands []Demand, dst []coflow.Rate) []coflow.Rate {
	t.Helper()
	want := maxMinFairReference(f, demands)
	got := f.MaxMinFairInto(dst, demands)
	if len(got) != len(want) {
		t.Fatalf("%d rates for %d demands", len(got), len(demands))
	}
	for i := range want {
		if math.Float64bits(float64(got[i])) != math.Float64bits(float64(want[i])) {
			t.Fatalf("demand %d %+v: rate %v (%#x), reference %v (%#x)", i, demands[i],
				got[i], math.Float64bits(float64(got[i])), want[i], math.Float64bits(float64(want[i])))
		}
	}
	return got
}

// FuzzMaxMinFair holds MaxMinFairInto to the round-by-round reference
// bit for bit (math.Float64bits), over one fabric reused across calls as
// a scheduler reuses it.
//
// The input is a header byte (by its low six bits the port count less
// one, and by its top bit a line rate of 100 rather than 1 Gbps)
// followed by (op, a, b) triples. The op's low two bits pick: a demand
// from port a to port b; the same with a cap, op's upper bits a
// fraction of the line rate; an allocation on the a→b path of op's
// upper bits' share of what it has free, so later calls fill a
// pre-drawn fabric; a call with the demands so far, which then start
// over (or, with op's bit 2 set, are kept, so the next call sees them
// again plus more). Repeated (a, b) pairs give duplicate
// demands. After the last triple the demands left are one more call.
// The committed corpus holds a full fabric, a pre-drawn one, caps below,
// at and above the fair share, duplicates, and one port in a 64-port
// fabric that every demand shares.
func FuzzMaxMinFair(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 3})
	f.Add([]byte{0x83, 0, 0, 1, 0x11, 0, 2, 2, 0, 1, 0, 1, 1, 3, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 3<<10 {
			t.Skip()
		}
		ports := int(in[0]&63) + 1
		rate := DefaultPortRate
		if in[0]&0x80 != 0 {
			rate = 100
		}
		fab := New(ports, rate)
		var demands []Demand
		var dst []coflow.Rate
		for ops := in[1:]; len(ops) >= 3; ops = ops[3:] {
			op, a, b := ops[0], coflow.PortID(int(ops[1])%ports), coflow.PortID(int(ops[2])%ports)
			switch op & 3 {
			case 0:
				demands = append(demands, Demand{Src: a, Dst: b})
			case 1:
				demands = append(demands, Demand{Src: a, Dst: b, Cap: rate * coflow.Rate(op>>2) / 23})
			case 2:
				fab.Allocate(a, b, fab.PathFree(a, b)*coflow.Rate(op>>2)/63)
			case 3:
				dst = checkMaxMinBits(t, fab, demands, dst[:0])
				if op&4 == 0 {
					demands = demands[:0]
				}
			}
		}
		checkMaxMinBits(t, fab, demands, dst[:0])
	})
}

// TestMaxMinFairMatchesReference runs random instances — many demands
// on few ports, caps, pre-drawn fabrics, one fabric across many calls —
// past the reference, beyond what the committed fuzz corpus covers.
func TestMaxMinFairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		ports := 1 + rng.Intn(40)
		rate := DefaultPortRate / coflow.Rate(1+rng.Intn(3))
		fab := New(ports, rate)
		var dst []coflow.Rate
		for call := 0; call < 5; call++ {
			fab.Reset()
			for n := rng.Intn(4); n > 0; n-- {
				a, b := coflow.PortID(rng.Intn(ports)), coflow.PortID(rng.Intn(ports))
				fab.Allocate(a, b, fab.PathFree(a, b)*coflow.Rate(rng.Float64()))
			}
			demands := make([]Demand, rng.Intn(300))
			for i := range demands {
				demands[i] = Demand{Src: coflow.PortID(rng.Intn(ports)), Dst: coflow.PortID(rng.Intn(ports))}
				if rng.Intn(5) == 0 {
					demands[i].Cap = rate * coflow.Rate(rng.Float64()) / 4
				}
			}
			dst = checkMaxMinBits(t, fab, demands, dst[:0])
		}
	}
}
