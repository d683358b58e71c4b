package coflow

import (
	"slices"
	"testing"
)

func indexedCoflow(id CoFlowID, width int) *CoFlow {
	spec := &Spec{ID: id}
	for i := 0; i < width; i++ {
		spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(i), Dst: PortID(i + width), Size: MB})
	}
	return New(spec)
}

func TestIndexSpaceAssignRelease(t *testing.T) {
	s := NewIndexSpace()
	a := indexedCoflow(1, 3)
	b := indexedCoflow(2, 2)
	s.Assign(a)
	s.Assign(b)
	if a.Idx != 0 || b.Idx != 1 {
		t.Fatalf("coflow idxs = %d, %d", a.Idx, b.Idx)
	}
	for i, f := range a.Flows {
		if f.Idx != i {
			t.Fatalf("a flow %d idx = %d", i, f.Idx)
		}
	}
	if s.FlowCap() != 5 || s.CoFlowCap() != 2 {
		t.Fatalf("caps = %d/%d, want 5/2", s.FlowCap(), s.CoFlowCap())
	}

	// Release recycles: an equally-wide coflow assigned right after a
	// release reproduces the same per-flow mapping, and the caps do not
	// grow.
	s.Release(a)
	if a.Idx != -1 || a.Flows[0].Idx != -1 {
		t.Fatal("release did not clear indices")
	}
	c := indexedCoflow(3, 3)
	s.Assign(c)
	for i, f := range c.Flows {
		if f.Idx != i {
			t.Fatalf("recycled flow %d idx = %d, want %d", i, f.Idx, i)
		}
	}
	if s.FlowCap() != 5 || s.CoFlowCap() != 2 {
		t.Fatalf("caps grew on recycle: %d/%d", s.FlowCap(), s.CoFlowCap())
	}
}

func TestIndexSpaceDoubleAssignPanics(t *testing.T) {
	s := NewIndexSpace()
	c := indexedCoflow(1, 1)
	s.Assign(c)
	defer func() {
		if recover() == nil {
			t.Fatal("double Assign did not panic")
		}
	}()
	s.Assign(c)
}

// TestGrow: Grow lengthens to n with every new element zero — also
// the ones a truncation left behind in the capacity — at least doubles
// the capacity when it reallocates, and never shrinks a slice.
func TestGrow(t *testing.T) {
	cases := []struct {
		name    string
		in      []int
		n       int
		want    []int
		minCap  int
		inPlace bool // the result shares in's backing array
	}{
		{"nil", nil, 3, []int{0, 0, 0}, 3, false},
		{"n below len is a no-op", []int{1, 2, 3}, 2, []int{1, 2, 3}, 3, true},
		{"n at len is a no-op", []int{1, 2, 3}, 3, []int{1, 2, 3}, 3, true},
		{"negative n is a no-op", []int{1}, -1, []int{1}, 1, true},
		{"truncated slice grows back zeroed", []int{1, 2, 3, 4, 5}[:2], 4, []int{1, 2, 0, 0}, 5, true},
		{"one past cap doubles", []int{1, 2, 3}, 4, []int{1, 2, 3, 0}, 6, false},
		{"far past cap takes n", []int{1, 2, 3}, 10, []int{1, 2, 3, 0, 0, 0, 0, 0, 0, 0}, 10, false},
	}
	for _, c := range cases {
		got := Grow(c.in, c.n)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: Grow(%v, %d) = %v, want %v", c.name, c.in, c.n, got, c.want)
		}
		if cap(got) < c.minCap || cap(got) < cap(c.in) || len(got) < len(c.in) {
			t.Errorf("%s: len/cap %d/%d from %d/%d, want cap >= %d and no shrinking", c.name, len(got), cap(got), len(c.in), cap(c.in), c.minCap)
		}
		if shared := cap(c.in) > 0 && &got[:cap(got)][cap(got)-1] == &c.in[:cap(c.in)][cap(c.in)-1]; shared != c.inPlace {
			t.Errorf("%s: result shares the input's array = %v, want %v", c.name, shared, c.inPlace)
		}
	}
}

func TestEnsureIndexedPreservesAndFills(t *testing.T) {
	s := NewIndexSpace()
	a := indexedCoflow(1, 2)
	s.Assign(a)
	b := indexedCoflow(2, 2) // unindexed
	fc, cc := EnsureIndexed([]*CoFlow{a, b})
	if fc != 4 || cc != 2 {
		t.Fatalf("caps = %d/%d, want 4/2", fc, cc)
	}
	if a.Flows[0].Idx != 0 || a.Flows[1].Idx != 1 {
		t.Fatal("EnsureIndexed clobbered existing indices")
	}
	if b.Flows[0].Idx != 2 || b.Flows[1].Idx != 3 || b.Idx != 1 {
		t.Fatalf("fallback indices = %d,%d (coflow %d)", b.Flows[0].Idx, b.Flows[1].Idx, b.Idx)
	}
}

// TestSendableCacheInvalidation: SendableFlows is cached per mutation
// epoch; the writers refresh it after flow-state changes.
func TestSendableCacheInvalidation(t *testing.T) {
	c := indexedCoflow(1, 3)
	if got := len(c.SendableFlows()); got != 3 {
		t.Fatalf("sendable = %d", got)
	}
	c.Complete(c.Flows[0], 0)
	if got := len(c.SendableFlows()); got != 2 {
		t.Fatalf("post-invalidate sendable = %d", got)
	}
	c.SetAvailable(c.Flows[1], false)
	if got := c.NumPending(); got != 2 {
		t.Fatalf("pending = %d", got) // availability does not affect pending
	}
	if got := len(c.SendableFlows()); got != 1 {
		t.Fatalf("sendable after availability flip = %d", got)
	}
}
