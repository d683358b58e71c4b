package coflow_test

import (
	"math/rand"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// The tests below hold sched.Bottleneck, the one Γ the clairvoyant
// policies order by, to a CoFlow's remaining bytes.

func TestBottleneckRemaining(t *testing.T) {
	c := coflow.New(&coflow.Spec{ID: 7, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 2, Size: 10 * coflow.MB},
		{Src: 0, Dst: 3, Size: 20 * coflow.MB},
		{Src: 1, Dst: 2, Size: 30 * coflow.MB},
		{Src: 1, Dst: 3, Size: 40 * coflow.MB},
	}})
	var gamma sched.Bottleneck
	bw := coflow.Rate(10 * 1e6) // 10 MB/s
	// Bottleneck: src 1 sends 30+40 MiB.
	if got, want := gamma.Gamma(c, bw), bw.TimeToSend(70*coflow.MB); got != want {
		t.Fatalf("Γ = %v, want %v", got, want)
	}
	if got, want := gamma.Gamma(c, 0), coflow.Rate(0).TimeToSend(1); got != want {
		t.Fatalf("Γ at zero bw = %v, want %v", got, want)
	}
	// Progress reduces the bottleneck: src0=30, src1=30, dst2=40, dst3=20.
	c.Progress(c.Flows[3], 40*coflow.MB)
	c.Complete(c.Flows[3], 0)
	if got, want := gamma.Gamma(c, bw), bw.TimeToSend(40*coflow.MB); got != want {
		t.Fatalf("Γ after progress = %v, want %v", got, want)
	}
}

func TestBottleneckMonotoneProperty(t *testing.T) {
	// Property: sending bytes on any flow never increases Γ.
	rng := rand.New(rand.NewSource(42))
	var gamma sched.Bottleneck
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6) + 1
		spec := &coflow.Spec{ID: coflow.CoFlowID(trial)}
		for i := 0; i < n; i++ {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{
				Src:  coflow.PortID(rng.Intn(4)),
				Dst:  coflow.PortID(rng.Intn(4) + 4),
				Size: coflow.Bytes(rng.Intn(100)+1) * coflow.MB,
			})
		}
		c := coflow.New(spec)
		bw := coflow.GbpsRate(1)
		before := gamma.Gamma(c, bw)
		f := c.Flows[rng.Intn(n)]
		c.Progress(f, f.Sent()+coflow.Bytes(rng.Intn(int(f.Size))+1))
		if f.Remaining() == 0 {
			c.Complete(f, 0)
		}
		after := gamma.Gamma(c, bw)
		if after > before {
			t.Fatalf("trial %d: Γ increased %v -> %v", trial, before, after)
		}
	}
}
