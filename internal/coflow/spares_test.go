package coflow

import (
	"fmt"
	"slices"
	"testing"
)

// widthSpec is a spec of w flows over a few port pairs, sized by salt.
func widthSpec(id CoFlowID, w, salt int) *Spec {
	spec := &Spec{ID: id, Arrival: Time(id) * Millisecond}
	for i := 0; i < w; i++ {
		spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(i % 7), Dst: PortID(i % 5), Size: Bytes(100 + 37*((i+salt)%11))})
	}
	return spec
}

// sameAsNew fails unless c, drawn from a Spares, is what New(c.Spec)
// makes: the same header, flows equal field by field and each its own,
// empty lists, and then the same answer from every accessor in turn,
// which leaves the same summary behind.
func sameAsNew(t *testing.T, c *CoFlow) {
	t.Helper()
	want := New(c.Spec)
	if len(c.Flows) != len(want.Flows) || len(c.store) < 2*len(c.Flows) {
		t.Fatalf("c%d: %d flows on storage for %d, New has %d", c.ID(), len(c.Flows), len(c.store)/2, len(want.Flows))
	}
	seen := map[*Flow]bool{}
	for i, f := range c.Flows {
		if *f != *want.Flows[i] {
			t.Fatalf("c%d flow %d = %+v, New's %+v", c.ID(), i, *f, *want.Flows[i])
		}
		if seen[f] {
			t.Fatalf("c%d: flow %d shares its Flow with another", c.ID(), i)
		}
		seen[f] = true
	}
	header := func(c *CoFlow) []any {
		var extra []any
		if x := c.extra; x != nil {
			extra = []any{x.medEpoch, len(x.send), len(x.sendPorts), len(x.doneSent)}
		}
		return []any{c.Spec, c.Idx, c.Arrived, c.Done, c.DoneAt, c.allAvail, c.maxStale, c.shifted,
			c.epoch, c.fresh, c.doneSum, c.doneLast, c.progress, c.maxSent, len(c.pend), len(c.pendPorts()), extra}
	}
	same := func(when string) {
		t.Helper()
		got, exp := header(c), header(want)
		if c.extra != nil && want.extra == nil {
			exp[len(exp)-1] = []any{uint64(0), 0, 0, 0} // a kept summaryExtra, emptied, is a missing one
		}
		if fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Fatalf("c%d %s: header %v, New's %v", c.ID(), when, got, exp)
		}
	}
	same("as drawn")
	if c.CacheEpoch() != want.CacheEpoch() || c.ProgressStamp() != want.ProgressStamp() {
		t.Fatalf("c%d: stamps (%d, %d), New's (%d, %d)", c.ID(), c.CacheEpoch(), c.ProgressStamp(), want.CacheEpoch(), want.ProgressStamp())
	}
	byValue := func(fs []*Flow) []Flow {
		out := make([]Flow, len(fs))
		for i, f := range fs {
			out[i] = *f
		}
		return out
	}
	if !slices.Equal(byValue(c.PendingFlows()), byValue(want.PendingFlows())) ||
		!slices.Equal(byValue(c.SendableFlows()), byValue(want.SendableFlows())) ||
		!slices.Equal(c.SendablePorts(), want.SendablePorts()) {
		t.Fatalf("c%d: pending or sendable lists differ from New's", c.ID())
	}
	if c.MaxSent() != want.MaxSent() || c.TotalSent() != want.TotalSent() || c.DoneMedian() != want.DoneMedian() ||
		c.NumPending() != want.NumPending() || c.RefreshDone() != want.RefreshDone() {
		t.Fatalf("c%d: summary figures differ from New's", c.ID())
	}
	same("after every read")
}

// TestSparesDrawEqualsNew retires a CoFlow that did everything that
// leaves state behind — finished flows one by one and in a batch, held a
// flow back, restarted one, asked DoneMedian — and draws CoFlows on its
// storage: of its own width, narrower in its class, and narrower by a
// class. Each equals New's, and the retired one has no flows left.
func TestSparesDrawEqualsNew(t *testing.T) {
	for _, w := range []int{24, 17, 12} {
		var s Spares
		old := s.New(widthSpec(1, 24, 0))
		old.SetAvailable(old.Flows[3], false)
		_ = old.SendablePorts()
		old.Progress(old.Flows[5], 50)
		old.Restart(old.Flows[5])
		for _, i := range []int{0, 9, 23} {
			old.Progress(old.Flows[i], old.Flows[i].Size)
			old.Complete(old.Flows[i], Time(i))
		}
		_ = old.DoneMedian()
		batch := []Completion{{old.Flows[1], 30}, {old.Flows[2], 31}}
		for _, d := range batch {
			old.Progress(d.Flow, d.Flow.Size)
		}
		old.CompleteAll(batch)
		_ = old.DoneMedian()
		storage := &old.store[0]
		s.Put(old)
		if old.Flows != nil || old.store != nil || old.ID() != 1 {
			t.Fatalf("a retired CoFlow keeps %d flows (ID %d)", len(old.Flows), old.ID())
		}
		c := s.New(widthSpec(2, w, 3))
		if &c.store[0] != storage {
			t.Fatalf("width %d: missed the retired width-24 storage", w)
		}
		sameAsNew(t, c)
	}
}

// TestSparesWidthAboveEveryClassMisses: a draw wider than any storage
// held allocates its own, exactly its width, and leaves the list as it
// was; so does one too wide for the top of its own class with nothing in
// the class above. A draw takes the top of its own class when it fits,
// and takes it off the list.
func TestSparesWidthAboveEveryClassMisses(t *testing.T) {
	var s Spares
	s.Put(s.New(widthSpec(1, 4, 0)))
	for _, w := range []int{40, 5} {
		c := s.New(widthSpec(2, w, 0))
		if len(c.store) != 2*w {
			t.Fatalf("width %d: drew storage for %d flows, want a miss", w, len(c.store)/2)
		}
		sameAsNew(t, c)
	}
	s.Put(s.New(widthSpec(3, 8, 0)))
	if c := s.New(widthSpec(4, 3, 0)); len(c.store) != 8 {
		t.Fatalf("width 3 drew storage for %d flows, want the width-4 storage of the class above", len(c.store)/2)
	}
	c := s.New(widthSpec(5, 8, 0))
	if len(c.store) != 16 {
		t.Fatalf("width 8 drew storage for %d flows, want the width-8 storage of its class", len(c.store)/2)
	}
	if d := s.New(widthSpec(6, 8, 0)); &d.store[0] == &c.store[0] {
		t.Fatal("two draws share one retired CoFlow's storage")
	}
}

// TestSparesHitAllocatesOnlyHeader: once a CoFlow of the width has
// retired, drawing the next — and reading its summary with a flow held
// back, finishing flows, asking DoneMedian, retiring it — allocates its
// header and nothing else. (The flows finish in one batch, which keeps
// the lists where they start: a list Complete cuts from the front comes
// back that much shorter, and is dropped when too short for a width.)
func TestSparesHitAllocatesOnlyHeader(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var s Spares
	spec := widthSpec(1, 20, 0)
	batch := make([]Completion, 2)
	allocs := testing.AllocsPerRun(100, func() {
		c := s.New(spec)
		c.SetAvailable(c.Flows[4], false)
		_ = c.SendablePorts()
		for i := range batch {
			f := c.Flows[2*i]
			c.Progress(f, f.Size)
			batch[i] = Completion{f, 1}
		}
		c.CompleteAll(batch)
		_ = c.DoneMedian()
		s.Put(c)
	})
	if allocs != 1 {
		t.Fatalf("a draw on retired storage allocated %.1f times, want 1 (the header)", allocs)
	}
}

// TestSparesKeepsFrontCutPorts: a CoFlow whose flows complete from the
// front, each Complete moving the start of its pending list and port
// view, hands its whole port array on, so a redraw at its width
// allocates its header and nothing else.
func TestSparesKeepsFrontCutPorts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var spares Spares
	spec := widthSpec(1, 8, 0)
	life := func() {
		c := spares.New(spec)
		c.SendablePorts() // the first read builds the port view
		for _, f := range c.Flows {
			c.Progress(f, f.Size)
			c.Complete(f, Millisecond)
		}
		if !c.RefreshDone() {
			t.Fatal("the CoFlow did not finish")
		}
		spares.Put(c)
	}
	life()
	if n := testing.AllocsPerRun(100, life); n != 1 {
		t.Fatalf("a redrawn CoFlow allocates %v objects over its life, want 1: its header", n)
	}
}
