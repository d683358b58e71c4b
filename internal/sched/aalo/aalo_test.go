package aalo

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

func mk(id coflow.CoFlowID, arrived coflow.Time, flows ...coflow.FlowSpec) *coflow.CoFlow {
	c := coflow.New(&coflow.Spec{ID: id, Arrival: arrived, Flows: flows})
	c.Arrived = arrived
	return c
}

func snap(ports int, cs ...*coflow.CoFlow) *sched.Snapshot {
	return &sched.Snapshot{Active: cs, Fabric: fabric.New(ports, fabric.DefaultPortRate)}
}

func TestFIFOWithinQueue(t *testing.T) {
	a, err := New(sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Same queue (both fresh), same port: earlier arrival wins fully.
	c1 := mk(1, 0, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.GB})
	c2 := mk(2, 1, coflow.FlowSpec{Src: 0, Dst: 3, Size: coflow.GB})
	alloc := a.Schedule(snap(4, c1, c2))
	if alloc.Rate(c1.Flows[0].Idx) != fabric.DefaultPortRate {
		t.Fatalf("FIFO head rate = %v", alloc.Rate(c1.Flows[0].Idx))
	}
	if alloc.Rate(c2.Flows[0].Idx) != 0 {
		t.Fatalf("FIFO tail rate = %v, want 0", alloc.Rate(c2.Flows[0].Idx))
	}
}

func TestQueueDemotionByTotalBytes(t *testing.T) {
	a, _ := New(sched.DefaultParams())
	// c1 arrived earlier but has sent 50 MB total (queue 1); fresh c2
	// sits in queue 0 and takes the shared port.
	c1 := mk(1, 0, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.GB})
	c1.Progress(c1.Flows[0], 50*coflow.MB)
	c2 := mk(2, 5, coflow.FlowSpec{Src: 0, Dst: 3, Size: coflow.GB})
	alloc := a.Schedule(snap(4, c1, c2))
	if alloc.Rate(c2.Flows[0].Idx) != fabric.DefaultPortRate {
		t.Fatalf("fresh coflow rate = %v, want line rate", alloc.Rate(c2.Flows[0].Idx))
	}
	if alloc.Rate(c1.Flows[0].Idx) != 0 {
		t.Fatalf("demoted coflow rate = %v, want 0", alloc.Rate(c1.Flows[0].Idx))
	}
}

func TestOutOfSyncByDesign(t *testing.T) {
	// The defining Aalo behaviour Saath removes: a CoFlow's flows on
	// different ports are scheduled independently — here one flow
	// rides an idle port while the other queues behind a competitor.
	a, _ := New(sched.DefaultParams())
	c1 := mk(1, 0, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.GB})
	c2 := mk(2, 1,
		coflow.FlowSpec{Src: 0, Dst: 3, Size: coflow.GB},
		coflow.FlowSpec{Src: 1, Dst: 4, Size: coflow.GB},
	)
	alloc := a.Schedule(snap(5, c1, c2))
	if alloc.Rate(c2.Flows[0].Idx) != 0 {
		t.Fatal("blocked flow should wait")
	}
	if alloc.Rate(c2.Flows[1].Idx) != fabric.DefaultPortRate {
		t.Fatal("free-port flow should run (out-of-sync)")
	}
}

func TestReceiverConstraintRespected(t *testing.T) {
	a, _ := New(sched.DefaultParams())
	// Two coflows from different senders into one receiver: the first
	// port scanned takes the ingress capacity.
	c1 := mk(1, 0, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.GB})
	c2 := mk(2, 0, coflow.FlowSpec{Src: 1, Dst: 2, Size: coflow.GB})
	alloc := a.Schedule(snap(3, c1, c2))
	total := alloc.Rate(c1.Flows[0].Idx) + alloc.Rate(c2.Flows[0].Idx)
	if total > fabric.DefaultPortRate {
		t.Fatalf("ingress oversubscribed: %v", total)
	}
}

func TestLifecycleNoops(t *testing.T) {
	a, _ := New(sched.DefaultParams())
	c := mk(1, 0, coflow.FlowSpec{Src: 0, Dst: 1, Size: 1})
	a.Arrive(c, 0) // must not panic
	a.Depart(c, 1)
	if a.Name() != "aalo" {
		t.Fatal("name")
	}
}
