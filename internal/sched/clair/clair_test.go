package clair

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

func mk(id coflow.CoFlowID, flows ...coflow.FlowSpec) *coflow.CoFlow {
	return coflow.New(&coflow.Spec{ID: id, Flows: flows})
}

func snap(ports int, cs ...*coflow.CoFlow) *sched.Snapshot {
	return &sched.Snapshot{Active: cs, Fabric: fabric.New(ports, fabric.DefaultPortRate)}
}

func TestNewValidatesPolicy(t *testing.T) {
	for _, p := range []Policy{SCF, SRTF, SJFDuration, LWTF} {
		c, err := New(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if c.Name() != string(p) {
			t.Fatalf("name = %q", c.Name())
		}
	}
	if _, err := New(Policy("nope")); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSCFPrefersSmallerTotal(t *testing.T) {
	c, _ := New(SCF)
	big := mk(1, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.GB})
	small := mk(2, coflow.FlowSpec{Src: 0, Dst: 3, Size: coflow.MB})
	alloc := c.Schedule(snap(4, big, small))
	if alloc.Rate(small.Flows[0].Idx) != fabric.DefaultPortRate {
		t.Fatalf("small rate = %v", alloc.Rate(small.Flows[0].Idx))
	}
	if alloc.Rate(big.Flows[0].Idx) != 0 {
		t.Fatalf("big rate = %v", alloc.Rate(big.Flows[0].Idx))
	}
}

func TestSRTFUsesRemainingNotTotal(t *testing.T) {
	c, _ := New(SRTF)
	// big has nearly finished: remaining 1 MB < small's 10 MB.
	big := mk(1, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.GB})
	big.Progress(big.Flows[0], coflow.GB-coflow.MB)
	small := mk(2, coflow.FlowSpec{Src: 0, Dst: 3, Size: 10 * coflow.MB})
	alloc := c.Schedule(snap(4, big, small))
	if alloc.Rate(big.Flows[0].Idx) != fabric.DefaultPortRate {
		t.Fatal("SRTF should prefer the nearly-done coflow")
	}
	// SCF (static total) makes the opposite call.
	c2, _ := New(SCF)
	alloc2 := c2.Schedule(snap(4, big, small))
	if alloc2.Rate(small.Flows[0].Idx) != fabric.DefaultPortRate {
		t.Fatal("SCF should prefer the smaller total")
	}
}

func TestSJFDurationIsBottleneckKeyed(t *testing.T) {
	c, _ := New(SJFDuration)
	// Fig. 17: C1 has two 5-unit flows (duration 5t), C2 one 6-unit
	// flow. Duration-SJF runs C1 first even though C1's total (10) is
	// larger than C2's (6).
	u := coflow.Bytes(coflow.GbpsRate(1).Transfer(100 * coflow.Millisecond))
	c1 := mk(1,
		coflow.FlowSpec{Src: 0, Dst: 2, Size: 5 * u},
		coflow.FlowSpec{Src: 1, Dst: 3, Size: 5 * u},
	)
	c2 := mk(2, coflow.FlowSpec{Src: 0, Dst: 4, Size: 6 * u})
	alloc := c.Schedule(snap(5, c1, c2))
	if alloc.Rate(c1.Flows[0].Idx) != fabric.DefaultPortRate {
		t.Fatal("duration-SJF should admit C1 first")
	}
	if alloc.Rate(c2.Flows[0].Idx) != 0 {
		t.Fatal("C2 should be blocked at the shared port")
	}
}

func TestLWTFWeighsContention(t *testing.T) {
	c, _ := New(LWTF)
	// Same Fig. 17 shape: k(C1)=2, k(C2)=k(C3)=1.
	// t·k: C1 = 5·2 = 10 > C2 = 6·1, C3 = 7·1 -> C2, C3 first.
	u := coflow.Bytes(coflow.GbpsRate(1).Transfer(100 * coflow.Millisecond))
	c1 := mk(1,
		coflow.FlowSpec{Src: 0, Dst: 2, Size: 5 * u},
		coflow.FlowSpec{Src: 1, Dst: 3, Size: 5 * u},
	)
	c2 := mk(2, coflow.FlowSpec{Src: 0, Dst: 4, Size: 6 * u})
	c3 := mk(3, coflow.FlowSpec{Src: 1, Dst: 5, Size: 7 * u})
	alloc := c.Schedule(snap(6, c1, c2, c3))
	if alloc.Rate(c2.Flows[0].Idx) != fabric.DefaultPortRate || alloc.Rate(c3.Flows[0].Idx) != fabric.DefaultPortRate {
		t.Fatalf("LWTF should admit C2 and C3 first: %v", alloc)
	}
	for _, f := range c1.Flows {
		if alloc.Rate(f.Idx) != 0 {
			t.Fatal("C1 should wait under LWTF")
		}
	}
}

func TestLifecycleNoops(t *testing.T) {
	c, _ := New(SCF)
	cf := mk(1, coflow.FlowSpec{Src: 0, Dst: 1, Size: 1})
	c.Arrive(cf, 0)
	c.Depart(cf, 0)
	if alloc := c.Schedule(snap(2)); alloc.Len() != 0 {
		t.Fatal("empty snapshot")
	}
}
