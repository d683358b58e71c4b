package coflow

// IndexSpace hands out dense runtime indices for CoFlows and their
// flows. The simulation engine (and the prototype coordinator) assigns
// indices at admission and releases them at retirement, so live
// indices stay packed in [0, Cap): allocation vectors and per-flow
// scratch arrays can be plain slices instead of maps keyed by FlowID.
//
// Released indices are recycled LIFO, which keeps the caps close to
// the peak number of concurrently live flows/coflows and makes index
// assignment deterministic for a deterministic event sequence. An
// IndexSpace is not safe for concurrent use; its owner serializes
// admission, scheduling and retirement.
type IndexSpace struct {
	flowNext   int
	coflowNext int
	flowFree   []int
	coflowFree []int
}

// NewIndexSpace returns an empty index space.
func NewIndexSpace() *IndexSpace { return &IndexSpace{} }

// Reset empties the space and keeps its free lists' storage: the next
// Assign hands out the indices a new space would, in the same order.
// No CoFlow may hold an index of the space any more.
func (s *IndexSpace) Reset() {
	*s = IndexSpace{flowFree: s.flowFree[:0], coflowFree: s.coflowFree[:0]}
}

// Assign gives c and every one of its flows a dense index. It panics
// if c already holds an index — double admission is a wiring bug.
func (s *IndexSpace) Assign(c *CoFlow) {
	if c.Idx >= 0 {
		panic("coflow: IndexSpace.Assign on an already-indexed CoFlow")
	}
	c.Idx = s.popCoFlow()
	for _, f := range c.Flows {
		f.Idx = s.popFlow()
	}
}

// Release returns c's indices to the free lists and marks c and its
// flows unindexed. Flows are released in reverse order, so an immediate
// re-Assign of an equally-wide CoFlow reproduces the same per-flow index
// mapping. Every later index assignment follows from this order, and
// with it every scheduler tie-break that reads an index: reversing it
// would move results.
func (s *IndexSpace) Release(c *CoFlow) {
	if c.Idx < 0 {
		return
	}
	// Room for every flow first, so the appends below never grow the
	// list by append's own rule.
	free := len(s.flowFree)
	s.flowFree = Grow(s.flowFree, free+len(c.Flows))[:free]
	for i := len(c.Flows) - 1; i >= 0; i-- {
		f := c.Flows[i]
		if f.Idx >= 0 {
			s.flowFree = append(s.flowFree, f.Idx)
			f.Idx = -1
		}
	}
	s.coflowFree = Grow(s.coflowFree, len(s.coflowFree)+1)
	s.coflowFree[len(s.coflowFree)-1] = c.Idx
	c.Idx = -1
}

// Grow returns s lengthened to n elements, every new one zero, or s
// itself when it already holds n. The tables keyed by a dense index
// grow with the index space, which creeps up by a CoFlow's width per
// arrival, so a reallocation at least doubles the capacity: append's
// 1.25x past 256 elements would copy a table many times its final size.
// Elements re-exposed within the capacity are zeroed too, so a table
// truncated between calls grows back clean.
func Grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return grow(s, n)
}

// grow is Grow's reallocating half, kept out of line so that Grow's
// length check inlines at every caller at the cost of one compare.
//
//go:noinline
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		clear(s[len(s):n])
		return s[:n]
	}
	g := make([]T, n, max(n, 2*cap(s)))
	copy(g, s)
	return g
}

// FlowCap returns an exclusive upper bound on every live flow index —
// the length allocation vectors must be sized to.
func (s *IndexSpace) FlowCap() int { return s.flowNext }

// CoFlowCap returns an exclusive upper bound on every live CoFlow
// index.
func (s *IndexSpace) CoFlowCap() int { return s.coflowNext }

func (s *IndexSpace) popFlow() int {
	if n := len(s.flowFree); n > 0 {
		idx := s.flowFree[n-1]
		s.flowFree = s.flowFree[:n-1]
		return idx
	}
	idx := s.flowNext
	s.flowNext++
	return idx
}

func (s *IndexSpace) popCoFlow() int {
	if n := len(s.coflowFree); n > 0 {
		idx := s.coflowFree[n-1]
		s.coflowFree = s.coflowFree[:n-1]
		return idx
	}
	idx := s.coflowNext
	s.coflowNext++
	return idx
}

// EnsureIndexed assigns fallback dense indices to any unindexed CoFlow
// or flow in active and returns exclusive upper bounds on the flow and
// coflow indices present. It is the safety net for hand-built
// snapshots (tests, library callers that bypass the engine); the
// engine itself indexes through an IndexSpace and never takes this
// path. Assignment is deterministic in slice order, and already-held
// indices are preserved.
func EnsureIndexed(active []*CoFlow) (flowCap, coflowCap int) {
	for _, c := range active {
		if c.Idx >= coflowCap {
			coflowCap = c.Idx + 1
		}
		for _, f := range c.Flows {
			if f.Idx >= flowCap {
				flowCap = f.Idx + 1
			}
		}
	}
	for _, c := range active {
		if c.Idx < 0 {
			c.Idx = coflowCap
			coflowCap++
		}
		for _, f := range c.Flows {
			if f.Idx < 0 {
				f.Idx = flowCap
				flowCap++
			}
		}
	}
	return flowCap, coflowCap
}
