package core

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

func newSaath(t *testing.T, mutate func(*sched.Params)) *Saath {
	t.Helper()
	p := sched.DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testSpace indexes every CoFlow mk builds, as the engine does before
// it calls Arrive.
var testSpace = coflow.NewIndexSpace()

func mk(id coflow.CoFlowID, flows ...coflow.FlowSpec) *coflow.CoFlow {
	c := coflow.New(&coflow.Spec{ID: id, Flows: flows})
	testSpace.Assign(c)
	return c
}

func snapshot(numPorts int, now coflow.Time, cs ...*coflow.CoFlow) *sched.Snapshot {
	return &sched.Snapshot{
		Now:    now,
		Active: cs,
		Fabric: fabric.New(numPorts, fabric.DefaultPortRate),
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		mutate func(*sched.Params)
		want   string
	}{
		{nil, "saath"},
		{func(p *sched.Params) { p.LCoF = false }, "saath/an+pf+fifo"},
		{func(p *sched.Params) { p.LCoF, p.PerFlowThresholds = false, false }, "saath/an+fifo"},
		{func(p *sched.Params) { p.PerFlowThresholds = false }, "saath/an+lcof"},
		{func(p *sched.Params) { p.WorkConservation = false }, "saath+nowc"},
	}
	for _, tc := range cases {
		if got := newSaath(t, tc.mutate).Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

func TestAllOrNoneSchedulesWholeCoFlow(t *testing.T) {
	s := newSaath(t, nil)
	c := mk(1,
		coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.MB},
		coflow.FlowSpec{Src: 1, Dst: 3, Size: coflow.MB},
	)
	s.Arrive(c, 0)
	alloc := s.Schedule(snapshot(4, 0, c))
	if alloc.Len() != 2 {
		t.Fatalf("alloc = %v, want both flows", alloc)
	}
	// MADD equal rates: single flow per port -> full line rate each.
	alloc.Range(func(idx int, r coflow.Rate) bool {
		if r != fabric.DefaultPortRate {
			t.Errorf("flow idx %d rate %v, want line rate", idx, r)
		}
		return true
	})
}

func TestAllOrNoneEqualRates(t *testing.T) {
	// Two flows share egress 0: each port-share 1/2; the shared
	// bottleneck pins BOTH flows to the same rate (MADD, D2).
	s := newSaath(t, nil)
	c := mk(1,
		coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.MB},
		coflow.FlowSpec{Src: 0, Dst: 3, Size: coflow.MB},
		coflow.FlowSpec{Src: 1, Dst: 3, Size: coflow.MB},
	)
	s.Arrive(c, 0)
	alloc := s.Schedule(snapshot(4, 0, c))
	want := fabric.DefaultPortRate / 2 // egress 0 and ingress 3 each carry 2 flows
	alloc.Range(func(idx int, r coflow.Rate) bool {
		if r != want {
			t.Errorf("flow idx %d rate %v, want %v", idx, r, want)
		}
		return true
	})
}

func TestAllOrNoneBlocksWhenAnyPortBusy(t *testing.T) {
	s := newSaath(t, func(p *sched.Params) { p.WorkConservation = false })
	// c1 (arrived first, lower contention via deadline? both same) —
	// order: both in Q0; LCoF tie -> FIFO by arrival. c1 takes ports
	// {0->2}; c2 needs {0->3, 1->4} and egress 0 is saturated, so c2
	// gets nothing at all (no work conservation).
	c1 := mk(1, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.MB})
	c2 := mk(2,
		coflow.FlowSpec{Src: 0, Dst: 3, Size: coflow.MB},
		coflow.FlowSpec{Src: 1, Dst: 4, Size: coflow.MB},
	)
	c2.Arrived = 1
	s.Arrive(c1, 0)
	s.Arrive(c2, 1)
	alloc := s.Schedule(snapshot(5, 1, c1, c2))
	if _, ok := alloc.Get(c1.Flows[0].Idx); !ok {
		t.Fatal("c1 not scheduled")
	}
	for _, f := range c2.Flows {
		if r := alloc.Rate(f.Idx); r != 0 {
			t.Errorf("all-or-none violated: c2 flow %v got %v", c2.FlowID(f), r)
		}
	}
}

func TestWorkConservationUsesIdlePorts(t *testing.T) {
	s := newSaath(t, nil)
	c1 := mk(1, coflow.FlowSpec{Src: 0, Dst: 2, Size: coflow.MB})
	c2 := mk(2,
		coflow.FlowSpec{Src: 0, Dst: 3, Size: coflow.MB},
		coflow.FlowSpec{Src: 1, Dst: 4, Size: coflow.MB},
	)
	c2.Arrived = 1
	s.Arrive(c1, 0)
	s.Arrive(c2, 1)
	alloc := s.Schedule(snapshot(5, 1, c1, c2))
	// Port 1->4 is idle after c1's admission; work conservation gives
	// it to c2's second flow even though c2 failed all-or-none.
	if r := alloc.Rate(c2.Flows[1].Idx); r != fabric.DefaultPortRate {
		t.Fatalf("work conservation rate = %v, want line rate", r)
	}
	if r := alloc.Rate(c2.Flows[0].Idx); r != 0 {
		t.Fatalf("flow on busy port got %v", r)
	}
}

func TestLCoFOrdersByContention(t *testing.T) {
	// Wide coflow cw blocks 2 others; each narrow one blocks only cw.
	// LCoF must admit the narrow ones first even though cw arrived
	// earlier. Every coflow shares a port with cw only.
	cw := mk(1,
		coflow.FlowSpec{Src: 0, Dst: 4, Size: coflow.MB},
		coflow.FlowSpec{Src: 1, Dst: 5, Size: coflow.MB},
	)
	cn1 := mk(2, coflow.FlowSpec{Src: 0, Dst: 6, Size: coflow.MB})
	cn2 := mk(3, coflow.FlowSpec{Src: 1, Dst: 7, Size: coflow.MB})
	cw.Arrived, cn1.Arrived, cn2.Arrived = 0, 1, 2

	s := newSaath(t, nil)
	s.Arrive(cw, 0)
	s.Arrive(cn1, 1)
	s.Arrive(cn2, 2)
	alloc := s.Schedule(snapshot(8, 2, cw, cn1, cn2))
	// k(cw)=2, k(cn1)=k(cn2)=1 -> narrow first; they saturate egress
	// 0 and 1, so cw gets nothing from all-or-none.
	if alloc.Rate(cn1.Flows[0].Idx) == 0 || alloc.Rate(cn2.Flows[0].Idx) == 0 {
		t.Fatalf("narrow coflows not admitted: %v", alloc)
	}
	for _, f := range cw.Flows {
		if alloc.Rate(f.Idx) != 0 {
			t.Fatalf("wide coflow should be blocked, got %v", alloc.Rate(f.Idx))
		}
	}
}

func TestFIFOAblationOrdersByArrival(t *testing.T) {
	cw := mk(1,
		coflow.FlowSpec{Src: 0, Dst: 4, Size: coflow.MB},
		coflow.FlowSpec{Src: 1, Dst: 5, Size: coflow.MB},
	)
	cn := mk(2, coflow.FlowSpec{Src: 0, Dst: 6, Size: coflow.MB})
	cn.Arrived = 1
	s := newSaath(t, func(p *sched.Params) { p.LCoF = false; p.WorkConservation = false })
	s.Arrive(cw, 0)
	s.Arrive(cn, 1)
	alloc := s.Schedule(snapshot(8, 1, cw, cn))
	if alloc.Rate(cw.Flows[0].Idx) == 0 {
		t.Fatal("FIFO should admit earlier arrival first")
	}
	if alloc.Rate(cn.Flows[0].Idx) != 0 {
		t.Fatal("later arrival admitted over FIFO head on shared port")
	}
}

func TestPerFlowThresholdDemotesFaster(t *testing.T) {
	// Fig. 5: width-4 CoFlow with per-flow progress S/4 demotes under
	// per-flow thresholds but stays in Q0 under total-bytes with the
	// same max progress... choose sent so that total stays below S.
	p := sched.DefaultParams()
	s, _ := New(p)
	spec := make([]coflow.FlowSpec, 4)
	for i := range spec {
		spec[i] = coflow.FlowSpec{Src: coflow.PortID(i), Dst: coflow.PortID(i + 4), Size: coflow.GB}
	}
	c := mk(1, spec...)
	// One flow sent 4 MB: m_c·N = 16 MB > S=10MB -> queue 1.
	c.Progress(c.Flows[0], 4*coflow.MB)
	s.Arrive(c, 0)
	s.Schedule(snapshot(8, 0, c))
	if q, _ := s.QueueOf(1); q != 1 {
		t.Fatalf("per-flow queue = %d, want 1", q)
	}

	// Same progress under the total-bytes ablation: 4 MB < 10 MB -> Q0.
	s2 := newSaath(t, func(p *sched.Params) { p.PerFlowThresholds = false; p.DynamicsSRTF = false })
	s2.Arrive(c, 0)
	s2.Schedule(snapshot(8, 0, c))
	if q, _ := s2.QueueOf(1); q != 0 {
		t.Fatalf("total-bytes queue = %d, want 0", q)
	}
}

// QueueOf reports the queue of the live CoFlow with the given ID; the
// second result is false for an unknown one.
func (s *Saath) QueueOf(id coflow.CoFlowID) (int, bool) {
	for _, st := range s.states {
		if st.c != nil && st.c.ID() == id {
			return st.queue, true
		}
	}
	return 0, false
}

func TestQueueOfUnknown(t *testing.T) {
	s := newSaath(t, nil)
	if _, ok := s.QueueOf(99); ok {
		t.Fatal("unknown coflow reported a queue")
	}
}

func TestDepartForgetsState(t *testing.T) {
	s := newSaath(t, nil)
	c := mk(1, coflow.FlowSpec{Src: 0, Dst: 1, Size: 1})
	s.Arrive(c, 0)
	s.Depart(c, 5)
	if _, ok := s.QueueOf(1); ok {
		t.Fatal("state leaked after Depart")
	}
}

func TestStarvationDeadlinePrioritizes(t *testing.T) {
	// A high-contention coflow passes its deadline and must jump ahead
	// of lower-contention competitors.
	cw := mk(1,
		coflow.FlowSpec{Src: 0, Dst: 4, Size: coflow.GB},
		coflow.FlowSpec{Src: 1, Dst: 5, Size: coflow.GB},
	)
	cn1 := mk(2, coflow.FlowSpec{Src: 0, Dst: 6, Size: coflow.GB})
	cn2 := mk(3, coflow.FlowSpec{Src: 1, Dst: 7, Size: coflow.GB})
	cn1.Arrived, cn2.Arrived = 1, 2
	s := newSaath(t, nil)
	s.Arrive(cw, 0)
	s.Arrive(cn1, 1)
	s.Arrive(cn2, 2)
	// First round sets deadlines.
	s.Schedule(snapshot(8, 2, cw, cn1, cn2))
	// Far in the future, cw's deadline has long expired; it must now
	// be admitted first despite its higher contention.
	farFuture := coflow.Time(1000) * coflow.Second
	alloc := s.Schedule(snapshot(8, farFuture, cw, cn1, cn2))
	if alloc.Rate(cw.Flows[0].Idx) == 0 || alloc.Rate(cw.Flows[1].Idx) == 0 {
		t.Fatalf("expired coflow not prioritized: %v", alloc)
	}
}

func TestDynamicsSRTFPromotesNearlyDoneCoFlow(t *testing.T) {
	// A coflow that has sent a lot (normally a low queue) but whose
	// remaining flows are nearly done gets promoted by the §4.3 path.
	spec := []coflow.FlowSpec{
		{Src: 0, Dst: 2, Size: coflow.GB},
		{Src: 1, Dst: 3, Size: coflow.GB},
	}
	c := mk(1, spec...)
	c.Progress(c.Flows[0], coflow.GB)
	c.Complete(c.Flows[0], 0)
	c.Progress(c.Flows[1], coflow.GB-2*coflow.MB) // ~2 MB left

	s := newSaath(t, nil)
	s.Arrive(c, 0)
	s.Schedule(snapshot(4, 0, c))
	q, _ := s.QueueOf(1)
	// Estimate: f_e = 1GB, remaining = 2MB, width 2 -> 4MB < 10MB -> Q0.
	if q != 0 {
		t.Fatalf("dynamics queue = %d, want promotion to 0", q)
	}

	s2 := newSaath(t, func(p *sched.Params) { p.DynamicsSRTF = false })
	s2.Arrive(c, 0)
	s2.Schedule(snapshot(4, 0, c))
	q2, _ := s2.QueueOf(1)
	if q2 == 0 {
		t.Fatalf("without dynamics the coflow should sit low, got q=%d", q2)
	}
}

func TestScheduleEmptySnapshot(t *testing.T) {
	s := newSaath(t, nil)
	if alloc := s.Schedule(snapshot(2, 0)); alloc.Len() != 0 {
		t.Fatalf("empty snapshot alloc = %v", alloc)
	}
}

func TestScheduleSkipsFullyUnavailableCoFlow(t *testing.T) {
	s := newSaath(t, nil)
	c := mk(1, coflow.FlowSpec{Src: 0, Dst: 1, Size: coflow.MB})
	c.SetAvailable(c.Flows[0], false)
	s.Arrive(c, 0)
	if alloc := s.Schedule(snapshot(2, 0, c)); alloc.Len() != 0 {
		t.Fatalf("unavailable coflow scheduled: %v", alloc)
	}
}

func TestScheduleWithoutArriveIsDefensive(t *testing.T) {
	s := newSaath(t, nil)
	c := mk(1, coflow.FlowSpec{Src: 0, Dst: 1, Size: coflow.MB})
	// No Arrive call: Schedule must not panic and should still admit.
	alloc := s.Schedule(snapshot(2, 0, c))
	if alloc.Len() != 1 {
		t.Fatalf("alloc = %v", alloc)
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	p := sched.DefaultParams()
	p.DeadlineFactor = 0.1
	if _, err := New(p); err == nil {
		t.Fatal("bad params accepted")
	}
}
