package sched

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
)

func mkCoflow(id coflow.CoFlowID, arrived coflow.Time, flows ...coflow.FlowSpec) *coflow.CoFlow {
	c := coflow.New(&coflow.Spec{ID: id, Arrival: arrived, Flows: flows})
	return c
}

func TestContentionFig1(t *testing.T) {
	// Fig. 1 topology: senders P1..P3 = 0..2, distinct receivers.
	// C1@P1, C2@{P1,P2,P3}, C3@P2, C4@P3 => k1=1, k2=3, k3=1, k4=1.
	c1 := mkCoflow(1, 0, coflow.FlowSpec{Src: 0, Dst: 3, Size: 1})
	c2 := mkCoflow(2, 0,
		coflow.FlowSpec{Src: 0, Dst: 4, Size: 1},
		coflow.FlowSpec{Src: 1, Dst: 5, Size: 1},
		coflow.FlowSpec{Src: 2, Dst: 6, Size: 1})
	c3 := mkCoflow(3, 0, coflow.FlowSpec{Src: 1, Dst: 7, Size: 1})
	c4 := mkCoflow(4, 0, coflow.FlowSpec{Src: 2, Dst: 8, Size: 1})
	k := Contention([]*coflow.CoFlow{c1, c2, c3, c4})
	want := map[coflow.CoFlowID]int{1: 1, 2: 3, 3: 1, 4: 1}
	for id, w := range want {
		if k[id] != w {
			t.Errorf("k_%d = %d, want %d (all: %v)", id, k[id], w, k)
		}
	}
}

func TestContentionCountsReceiverPorts(t *testing.T) {
	// Two coflows sharing only a receiver port still contend.
	a := mkCoflow(1, 0, coflow.FlowSpec{Src: 0, Dst: 9, Size: 1})
	b := mkCoflow(2, 0, coflow.FlowSpec{Src: 1, Dst: 9, Size: 1})
	k := Contention([]*coflow.CoFlow{a, b})
	if k[1] != 1 || k[2] != 1 {
		t.Fatalf("receiver-side contention missed: %v", k)
	}
}

func TestContentionIgnoresDoneAndUnavailable(t *testing.T) {
	a := mkCoflow(1, 0, coflow.FlowSpec{Src: 0, Dst: 9, Size: 1})
	b := mkCoflow(2, 0, coflow.FlowSpec{Src: 0, Dst: 8, Size: 1})
	c := mkCoflow(3, 0, coflow.FlowSpec{Src: 0, Dst: 7, Size: 1})
	b.Complete(b.Flows[0], 0)
	c.SetAvailable(c.Flows[0], false)
	k := Contention([]*coflow.CoFlow{a, b, c})
	if k[1] != 0 {
		t.Fatalf("k_1 = %d, want 0 (competitors done/unavailable)", k[1])
	}
}

func TestContentionCountsCoFlowsNotFlows(t *testing.T) {
	// One competitor with many flows on the same port counts once.
	a := mkCoflow(1, 0, coflow.FlowSpec{Src: 0, Dst: 5, Size: 1})
	b := mkCoflow(2, 0,
		coflow.FlowSpec{Src: 0, Dst: 6, Size: 1},
		coflow.FlowSpec{Src: 0, Dst: 7, Size: 1},
		coflow.FlowSpec{Src: 0, Dst: 8, Size: 1})
	k := Contention([]*coflow.CoFlow{a, b})
	if k[1] != 1 {
		t.Fatalf("k_1 = %d, want 1", k[1])
	}
}

func TestByArrival(t *testing.T) {
	a := mkCoflow(3, 10, coflow.FlowSpec{Size: 1})
	b := mkCoflow(1, 5, coflow.FlowSpec{Size: 1})
	c := mkCoflow(2, 10, coflow.FlowSpec{Size: 1})
	cs := []*coflow.CoFlow{a, b, c}
	ByArrival(cs)
	if cs[0].ID() != 1 || cs[1].ID() != 2 || cs[2].ID() != 3 {
		t.Fatalf("order = %d,%d,%d", cs[0].ID(), cs[1].ID(), cs[2].ID())
	}
}

func TestParamsNormalize(t *testing.T) {
	p, err := Params{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Queues.NumQueues != 10 || p.DeadlineFactor != 2 {
		t.Fatalf("normalized = %+v", p)
	}
	if _, err := (Params{DeadlineFactor: 0.5}).Normalize(); err == nil {
		t.Fatal("deadline < 1 accepted")
	}
	bad := Params{}
	bad.Queues.NumQueues = -1
	bad.Queues.StartThreshold = 1
	bad.Queues.Growth = 2
	if _, err := bad.Normalize(); err == nil {
		t.Fatal("bad queue config accepted")
	}
}

func TestRegistry(t *testing.T) {
	Register("sched-test-dummy", func(p Params) (Scheduler, error) { return nil, nil })
	found := false
	for _, n := range Names() {
		if n == "sched-test-dummy" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered scheduler missing from Names")
	}
	if _, err := New("no-such-scheduler", Params{}); err == nil {
		t.Fatal("unknown scheduler did not error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("sched-test-dummy", func(p Params) (Scheduler, error) { return nil, nil })
}

// TestRateVecGrowthAndContentStamp: the vector grows past what was asked
// for without any slot beyond it reading as set, and every write —
// Reset, Set, Add on a new or a present entry — moves the content stamp,
// which reads leave alone.
func TestRateVecGrowthAndContentStamp(t *testing.T) {
	v := NewRateVec(4)
	v.Set(3, 7)
	v.Reset(5) // grows to at least 8 slots; indices 5.. were never part of the snapshot
	for idx := 0; idx < 16; idx++ {
		if r, ok := v.Get(idx); ok || r != 0 {
			t.Fatalf("after Reset(5): index %d reads %v, set = %v", idx, r, ok)
		}
	}
	v.Set(9, 2) // past the end: grows again
	if r, ok := v.Get(9); !ok || r != 2 || v.Len() != 1 {
		t.Fatalf("Get(9) = %v, %v with %d entries", r, ok, v.Len())
	}

	if (*RateVec)(nil).ContentStamp() != 0 {
		t.Error("a nil vector has a content stamp")
	}
	last := v.ContentStamp()
	moved := func(what string, want bool) {
		t.Helper()
		if now := v.ContentStamp(); (now != last) != want {
			t.Errorf("%s: content stamp moved = %v, want %v", what, now != last, want)
		} else if now < last {
			t.Errorf("%s: content stamp went back", what)
		}
		last = v.ContentStamp()
	}
	v.Get(9)
	v.Rate(1)
	v.Range(func(int, coflow.Rate) bool { return true })
	_ = v.Equal(v)
	moved("reads", false)
	v.Set(1, 3)
	moved("Set on a new entry", true)
	v.Set(1, 3)
	moved("Set on a present entry", true)
	v.Add(1, 0)
	moved("Add on a present entry", true)
	v.Add(2, 1)
	moved("Add on a new entry", true)
	v.Reset(4)
	moved("Reset", true)
}

// TestIssued: Begin sizes a hand-built snapshot's caps like Allocation
// and resets nothing; it reports a standing vector only for the vector
// End recorded, unwritten, with the same fabric full then and now.
func TestIssued(t *testing.T) {
	c := mkCoflow(1, 0, coflow.FlowSpec{Src: 0, Dst: 1, Size: 1}, coflow.FlowSpec{Src: 1, Dst: 0, Size: 1})
	fab := fabric.New(2, fabric.DefaultPortRate)
	snap := &Snapshot{Active: []*coflow.CoFlow{c}, Fabric: fab}
	var h Issued
	if prev, stands := h.Begin(snap); prev != nil || stands {
		t.Fatalf("first Begin = %v, %v", prev, stands)
	}
	if snap.FlowCap != 2 || snap.CoFlowCap != 1 || c.Flows[1].Idx != 1 {
		t.Fatalf("caps %d/%d, flow index %d: Begin did not index the snapshot", snap.FlowCap, snap.CoFlowCap, c.Flows[1].Idx)
	}
	issue := func() *RateVec {
		v := snap.Allocation()
		v.Set(1, 9)
		h.End(snap, v)
		return v
	}
	v := issue()
	stamp := v.ContentStamp()
	if prev, stands := h.Begin(snap); prev != v || !stands || v.Rate(1) != 9 || v.ContentStamp() != stamp {
		t.Fatalf("Begin after End = %v, %v (vector touched: %v)", prev == v, stands, v.ContentStamp() != stamp)
	}
	stands := func() bool { _, ok := h.Begin(snap); return ok }

	v.Add(1, 0)
	if stands() {
		t.Error("stands after a write to the vector")
	}
	v = issue()
	twin := NewRateVec(2) // v's content stamp on another vector
	for twin.ContentStamp() < v.ContentStamp() {
		twin.Set(0, 1)
	}
	if snap.Alloc = twin; stands() {
		t.Error("stands for another vector under the same stamp")
	}
	snap.Alloc = v
	if snap.Fabric = fabric.New(2, fabric.DefaultPortRate); stands() {
		t.Error("stands on another fabric")
	}
	snap.Fabric = fab
	if fab.Allocate(0, 1, 1); stands() {
		t.Error("stands on a fabric handed over partly drawn")
	}
	issue() // drawn from that fabric
	if fab.Reset(); stands() {
		t.Error("a decision drawn from a partly drawn fabric stands once the fabric is full")
	}
	issue()
	if !stands() {
		t.Error("does not stand with nothing changed")
	}
}
