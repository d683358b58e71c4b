// Package coflow defines the core data model shared by every scheduler,
// the simulator, and the distributed prototype: flows, CoFlows, ports,
// byte counts and simulated time.
//
// A CoFlow is a set of semantically related flows between cluster nodes
// (e.g. all shuffle flows of one MapReduce job). Its completion time
// (CCT) is the span from the arrival of its first flow to the
// completion of its last flow.
//
// A CoFlow keeps a summary of its flows — the pending and sendable
// lists, their compact (src, dst) view, what the finished flows sent,
// and m_c, the most any one flow has sent — and carries two stamps: a
// mutation epoch (CacheEpoch) that moves when a flow's Done or Available
// state changes or a finished flow's figures are rewritten, and a
// progress stamp (ProgressStamp) that moves when a pending flow's Sent
// does. Everything derived from a CoFlow is
// keyed on them. A flow's Sent, Done, DoneAt and Available are read
// through its accessors and written only through its CoFlow, whose
// writers move the stamps themselves:
//
//   - Progress(f, sent) records what f has sent: the progress stamp for
//     a pending flow, the epoch for a finished one (its bytes are part
//     of the summary);
//   - Restart(f) takes back everything f sent (a node failure), as
//     Progress does;
//   - SetAvailable(f, v) holds f back or releases it, moving the epoch
//     only when v differs;
//   - Complete(f, at) finishes a pending flow at its last Progress,
//     moving the epoch and, while the summary is fresh, updating it in
//     place; CompleteAll finishes the completions of one walk together;
//     a flow already done is left as it is.
//
// With both stamps unchanged, nothing a scheduler's queue rule reads has
// moved, and the schedulers hold their decisions on exactly that
// (internal/core, internal/sched/aalo).
package coflow

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Time is simulated time in microseconds. Integer microseconds keep the
// simulator deterministic across platforms while comfortably resolving
// the 8 ms scheduling interval used in the paper.
type Time int64

// Common durations in Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond)) }

// Bytes is a byte count. Sizes in the coflow-benchmark trace are
// megabytes; we store exact bytes.
type Bytes int64

// Common sizes in Bytes units.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// Rate is bandwidth in bytes per second.
type Rate float64

// GbpsRate converts gigabits per second to a Rate. The paper's fabric
// provisions 1 Gbps per port.
func GbpsRate(gbps float64) Rate { return Rate(gbps * 1e9 / 8) }

// Transfer returns the bytes moved at rate r over duration d, rounding
// down. A zero or negative duration transfers nothing.
func (r Rate) Transfer(d Time) Bytes {
	if d <= 0 || r <= 0 {
		return 0
	}
	return Bytes(float64(r) * d.Seconds())
}

// TimeToSend returns the duration needed to send b bytes at rate r,
// rounding up to the next microsecond. It returns a very large Time if
// the rate is not positive.
func (r Rate) TimeToSend(b Bytes) Time {
	if b <= 0 {
		return 0
	}
	if r <= 0 {
		return maxTime
	}
	secs := float64(b) / float64(r)
	t := Time(secs * float64(Second))
	if t.Seconds() < secs {
		t++
	}
	if t <= 0 {
		t = Microsecond
	}
	return t
}

// maxTime is an effectively-infinite horizon (about 292 millennia).
const maxTime = Time(1) << 62

// PortID identifies a cluster node. Each node owns one egress (sender)
// port and one ingress (receiver) port on the non-blocking fabric. It is
// 32 bits wide, as PortPair is: a trace names at most math.MaxInt32
// ports (trace.Parse and Trace.Validate refuse more).
type PortID int32

// CoFlowID identifies a CoFlow. IDs are unique within a trace.
type CoFlowID int64

// FlowID identifies a flow within its CoFlow by index.
type FlowID struct {
	CoFlow CoFlowID
	Index  int
}

func (id FlowID) String() string { return fmt.Sprintf("c%d/f%d", id.CoFlow, id.Index) }

// PortPair is one flow's sender and receiver node, packed: the compact
// view of a CoFlow's sendable flows (SendablePorts) that the port scans
// of all-or-none, LCoF and work conservation read without touching the
// flows themselves.
type PortPair struct{ Src, Dst int32 }

// FlowSpec is the static description of one flow: endpoints and size.
type FlowSpec struct {
	Src  PortID // sender node
	Dst  PortID // receiver node
	Size Bytes  // total bytes to move
}

// Spec is the static description of a CoFlow as it appears in a trace.
type Spec struct {
	ID      CoFlowID
	Arrival Time
	Flows   []FlowSpec

	// Stage and Wave identify the position of this CoFlow inside a
	// multi-stage DAG query or a multi-wave job (§4.3). Both are zero
	// for standalone CoFlows.
	Stage int
	Wave  int

	// DependsOn lists CoFlows that must complete before this one may
	// start (DAG scheduling). Empty for standalone CoFlows.
	DependsOn []CoFlowID
}

// Width returns the number of flows.
func (s *Spec) Width() int { return len(s.Flows) }

// TotalSize returns the sum of all flow sizes.
func (s *Spec) TotalSize() Bytes {
	var total Bytes
	for _, f := range s.Flows {
		total += f.Size
	}
	return total
}

// Validate reports structural problems: no flows, negative sizes, or
// negative port IDs.
func (s *Spec) Validate() error {
	if len(s.Flows) == 0 {
		return fmt.Errorf("coflow %d: no flows", s.ID)
	}
	if s.Arrival < 0 {
		return fmt.Errorf("coflow %d: negative arrival %d", s.ID, s.Arrival)
	}
	for i, f := range s.Flows {
		if f.Size < 0 {
			return fmt.Errorf("coflow %d flow %d: negative size %d", s.ID, i, f.Size)
		}
		if f.Src < 0 || f.Dst < 0 {
			return fmt.Errorf("coflow %d flow %d: negative port (src=%d dst=%d)", s.ID, i, f.Src, f.Dst)
		}
	}
	return nil
}

// Flow is the runtime state of one flow during simulation or execution.
// It is 56 bytes on a 64-bit platform (TestFlowLayout pins it): Idx,
// the two 32-bit ports, Size, sent, doneAt and Slowdown fill six words,
// and the flow's position and its three flags share the seventh. A flow
// does not repeat its CoFlow's ID: its Index and the owning CoFlow name
// it (CoFlow.FlowID).
type Flow struct {
	// Idx is the flow's dense runtime index, assigned by an IndexSpace
	// at admission (or by EnsureIndexed as a fallback). It keys the
	// scheduler's allocation vector (sched.RateVec) and per-flow scratch
	// arrays; -1 until assigned.
	Idx  int
	Src  PortID
	Dst  PortID
	Size Bytes // ground truth; online schedulers must not read it

	// Progress, written through the owning CoFlow (see the package doc)
	// and read through the accessors below.
	sent   Bytes // bytes moved so far
	doneAt Time

	// Slowdown > 1 models a straggler whose achievable rate is divided
	// by the factor; Restarted marks a flow whose progress was reset by
	// a node failure. Both are injected by the simulator's dynamics
	// layer.
	Slowdown float64

	index     int32 // position in the CoFlow's Flows (see Index)
	done      bool
	available bool // data ready to send (pipelined frameworks, §4.3)
	Restarted bool
}

// Index returns the flow's position in its CoFlow's Flows and Spec.Flows.
func (f *Flow) Index() int { return int(f.index) }

// Sent returns the bytes the flow has moved so far.
func (f *Flow) Sent() Bytes { return f.sent }

// Done reports whether the flow has finished.
func (f *Flow) Done() bool { return f.done }

// DoneAt returns when the flow finished, valid once Done.
func (f *Flow) DoneAt() Time { return f.doneAt }

// Available reports whether the flow's data is ready to send (pipelined
// frameworks may hold flows back, §4.3).
func (f *Flow) Available() bool { return f.available }

// Remaining returns the bytes still to send.
func (f *Flow) Remaining() Bytes {
	r := f.Size - f.sent
	if r < 0 {
		return 0
	}
	return r
}

// EffectiveRate caps rate r by the flow's straggler ceiling: a flow
// slowed by factor k can source data at no more than line/k regardless
// of the network rate it is granted (slow disk, overloaded host). The
// ceiling is absolute, as real stragglers are — which is what lets the
// coordinator's throughput observation (§4.3) converge on it.
func (f *Flow) EffectiveRate(r, line Rate) Rate {
	if f.Slowdown > 1 {
		if ceil := line / Rate(f.Slowdown); r > ceil {
			return ceil
		}
	}
	return r
}

// CoFlow is the runtime state of a CoFlow: its spec plus per-flow
// progress and lifecycle timestamps.
type CoFlow struct {
	Spec *Spec
	// Idx is the CoFlow's dense runtime index (see Flow.Idx); -1 until
	// assigned. It keys per-coflow scratch such as contention vectors.
	Idx     int
	Flows   []*Flow
	Arrived Time // when it was released to the scheduler
	Done    bool
	// Summary flags, beside Done so the struct packs: every pending flow
	// is Available (the sendable lists are pend's), maxSent must be found
	// again by a pass over Flows, and the list entries Complete has
	// shifted since the last build.
	allAvail bool
	maxStale bool
	shifted  int32
	DoneAt   Time

	// Epoch-stamped progress summary. The writers move the epoch whenever
	// a flow's Done or Available state — or a done flow's Sent — changes:
	// Complete keeps a fresh summary fresh, and the others leave it to the
	// next read's one pass over Flows (build). Between two moves the done
	// flows are frozen, so the summary holds everything about them as
	// scalars plus the lists of flows still live; the per-interval
	// accessors then read only the pending flows' Sent, which is the one
	// thing that moves inside an epoch.
	epoch    uint64
	fresh    uint64  // epoch the summary below was computed at
	pend     []*Flow // not-done flows, in Flows order
	doneSum  Bytes   // Σ Sent over done flows
	doneLast Time    // max DoneAt over done flows
	extra    *summaryExtra

	// progress is the stamp Progress moves for a pending flow: the one
	// thing the epoch does not cover.
	progress uint64
	// maxSent is m_c, the most any one flow has sent, kept by the
	// writers that move Sent (see MaxSent); unless maxStale it is exact.
	maxSent Bytes

	// store is the flow storage Flows and pend are cut from: 2n pointers
	// for some n >= the width, the first n into one slab of flows and the
	// rest pend's array. ports is the (Src, Dst) array beside pend's, one
	// entry per pointer, allocated on the first read: pendPorts is the
	// stretch of it at pend's position. Spares.Put hands both on whole.
	store []*Flow
	ports []PortPair
}

// summaryExtra is the part of a CoFlow's summary that only some CoFlows
// need, allocated on first use: the sendable lists once a pending flow is
// held back, and the done flows' sorted Sent once DoneMedian is asked.
type summaryExtra struct {
	send      []*Flow    // sendable flows, when not every pending flow is
	sendPorts []PortPair // send's (Src, Dst), position for position
	medEpoch  uint64     // epoch doneSent was sorted at
	doneSent  []Bytes    // Sent of the done flows, ascending
}

// New instantiates runtime state for a spec. All flows start available
// unless the caller marks them otherwise. The flows live in one slab,
// and Flows shares one array with the pending list's storage, so a
// CoFlow costs three allocations whatever its width, and its first read
// one more (the pending flows' port pairs). New is an empty Spares' New.
func New(spec *Spec) *CoFlow { return newCoFlow(spec, spare{}) }

// Spares is a free list of retired CoFlows' flow storage — the flows,
// the pointer array Flows and the pending list share, the port view and
// the summary's optional lists — handed to later arrivals. A replay
// that returns each retired CoFlow (Put) and draws each arrival (New)
// allocates storage for its live set, not for every CoFlow of its
// trace. The CoFlow header is always fresh: holders key on the *CoFlow
// and its epoch, and a reused header could pass a newcomer off as a
// departed CoFlow. The zero value is an empty list; a Spares has one
// owner.
type Spares struct {
	// classes holds storage by width class: storage for n flows sits in
	// class bits.Len(n)-1, so class k holds widths in [2^k, 2^(k+1)).
	classes [][]spare
}

// spare is one retired CoFlow's storage.
type spare struct {
	flows []*Flow    // CoFlow.store
	ports []PortPair // CoFlow.ports
	extra *summaryExtra
}

// New is New(spec) on storage a retired CoFlow left, when a class holds
// some wide enough: the top of the spec width's own class if it fits,
// else the top of the class above, which always does. Otherwise it
// allocates exactly the spec's width, as New does. Either way the
// CoFlow is indistinguishable from New's.
func (s *Spares) New(spec *Spec) *CoFlow {
	w := len(spec.Flows)
	k := bits.Len(uint(w)) - 1 // w's class; -1 for no flows
	for top := k + 1; k >= 0 && k <= top && k < len(s.classes); k++ {
		cl := s.classes[k]
		if n := len(cl); n > 0 && len(cl[n-1].flows) >= 2*w {
			sp := cl[n-1]
			cl[n-1] = spare{}
			s.classes[k] = cl[:n-1]
			return newCoFlow(spec, sp)
		}
	}
	return newCoFlow(spec, spare{})
}

// Put takes a retired CoFlow's storage for later arrivals. The CoFlow
// keeps its header — its ID, times and stamps — and loses its flows:
// Flows is nil afterwards, so a stale read fails rather than reading a
// later CoFlow's flows. Only a CoFlow nothing reads the flows of any
// more may be put; one New did not make is left as it is.
func (s *Spares) Put(c *CoFlow) {
	if len(c.store) == 0 {
		return
	}
	k := bits.Len(uint(len(c.store)/2)) - 1
	if k >= len(s.classes) {
		s.classes = append(s.classes, make([][]spare, k+1-len(s.classes))...)
	}
	s.classes[k] = append(s.classes[k], spare{flows: c.store, ports: c.ports, extra: c.extra})
	c.Flows, c.pend, c.extra, c.store, c.ports = nil, nil, nil, nil, nil
}

// newCoFlow builds a CoFlow for spec on storage sp, allocating it when
// sp has none. Every flow is written afresh and every list starts
// empty; a list too short for the width is dropped, so that its first
// use allocates it at the width, as on fresh storage.
func newCoFlow(spec *Spec, sp spare) *CoFlow {
	w := len(spec.Flows)
	c := &CoFlow{Spec: spec, Idx: -1, Arrived: spec.Arrival, epoch: 1}
	if sp.flows == nil {
		slab := make([]Flow, w)
		sp.flows = make([]*Flow, 2*w)
		for i := range slab {
			sp.flows[i] = &slab[i]
		}
	}
	n := len(sp.flows) / 2
	c.store = sp.flows
	c.Flows, c.pend = sp.flows[:w:w], sp.flows[n:n]
	for i, fs := range spec.Flows {
		*c.Flows[i] = Flow{
			Idx:       -1,
			index:     int32(i),
			Src:       fs.Src,
			Dst:       fs.Dst,
			Size:      fs.Size,
			available: true,
			Slowdown:  1,
		}
	}
	c.ports = sp.ports
	if x := sp.extra; x != nil {
		done := x.doneSent
		*x = summaryExtra{send: x.send[:0], sendPorts: x.sendPorts[:0]}
		if cap(done) >= w {
			x.doneSent = done[:0]
		}
		c.extra = x
	}
	return c
}

// Progress records that f has sent sent bytes so far. For a pending
// flow it moves the progress stamp, even when sent is unchanged (a
// boundary that moved no byte still asked); for a finished one — a late
// report — the epoch, since a finished flow's bytes are part of the
// summary.
//
//saath:hotpath
func (c *CoFlow) Progress(f *Flow, sent Bytes) {
	if !c.maxStale {
		if sent >= c.maxSent {
			c.maxSent = sent
		} else if f.sent == c.maxSent {
			c.maxStale = true // the flow holding the maximum went down
		}
	}
	f.sent = sent
	if f.done {
		c.epoch++
		return
	}
	c.progress++
}

// Restart takes back everything f sent, as a node failure does, and
// marks it Restarted. The stamps move as Progress moves them.
//
//saath:hotpath
func (c *CoFlow) Restart(f *Flow) {
	c.Progress(f, 0)
	f.Restarted = true
}

// SetAvailable holds f back (false) or releases it (true). The epoch
// moves when v differs from what f had, and nothing moves when it does
// not.
//
//saath:hotpath
func (c *CoFlow) SetAvailable(f *Flow, v bool) {
	if f.available == v {
		return
	}
	f.available = v
	c.epoch++
}

// Completion is one flow a walk finished and when: CompleteAll's input.
type Completion struct {
	Flow *Flow
	At   Time
}

// Complete marks pending flow f done at time at, with the Sent its last
// Progress recorded as final, and moves the epoch. A flow already done
// is left as it is. While the summary is fresh it stays fresh, in place
// and with no allocation: the flow leaves the pending and sendable lists
// and joins the finished-flow sum, maximum, last completion and, once
// DoneMedian has been asked for, its sorted list.
//
// The flow is found by binary search on its Index and cut out of the
// lists by shifting their shorter side (cut): what a wide CoFlow whose
// flows finish one at a time needs. The entries shifted between two
// builds are bounded by shiftBudget per flow of the CoFlow; past that,
// and for a flow it cannot find in the lists, Complete leaves the
// summary stale for the next read to rebuild.
//
//saath:hotpath
func (c *CoFlow) Complete(f *Flow, at Time) {
	if f.done {
		return
	}
	f.done, f.doneAt = true, at
	was := c.epoch
	c.epoch++
	if was != 0 && c.fresh == was && c.cutOut(f, was) {
		c.keepFresh(was)
	}
}

// CompleteAll completes every flow of done, as Complete does each, and
// moves the epoch once. A batch — the flows one walk finished — is taken
// out of a fresh summary by one pass over the lists (sweep), which costs
// the pending flows, not every flow the CoFlow had; a batch of one goes
// through Complete.
//
// That split is measured, not assumed: on the benchmark's workloads
// (2-core Xeon, alternating 4 s pairs on seeds 1 and 7) completing one
// flow by a sweep was slower in 10 of 12 pairs on dense-burst (paired
// median +10.5 %) and in 12 of 12 on coordinator-testbed (+24.8 %),
// since a sweep reads every pending flow's Done where cut compares a few
// pointers; a plain binary search over the whole list with
// slices.Delete was slower in 9 of 12 (+7.4 %) and 9 of 10 (+6.3 %): its
// probes dereference flows all over the list, and the deletion shifts
// the longer side as often as the shorter.
//
//saath:hotpath
func (c *CoFlow) CompleteAll(done []Completion) {
	if len(done) == 1 {
		c.Complete(done[0].Flow, done[0].At)
		return
	}
	n := 0
	for _, d := range done {
		if f := d.Flow; !f.done {
			f.done, f.doneAt = true, d.At
			n++
		}
	}
	if n == 0 {
		return
	}
	was := c.epoch
	c.epoch++
	if was != 0 && c.fresh == was {
		c.sweep(was)
		c.keepFresh(was)
	}
}

// keepFresh carries a summary fresh at epoch was, which Complete or
// CompleteAll just brought up to date, over to the current epoch.
func (c *CoFlow) keepFresh(was uint64) {
	if x := c.extra; x != nil && x.medEpoch == was {
		x.medEpoch = c.epoch
	}
	c.fresh = c.epoch
}

// cutOut takes one finished flow out of a fresh summary at epoch was,
// reporting false — nothing changed — when the flow is not in the lists
// or the shift budget is spent.
func (c *CoFlow) cutOut(f *Flow, was uint64) bool {
	i, ok := position(c.pend, len(c.Flows), f)
	if !ok {
		return false
	}
	x, j, inSend := c.extra, 0, !c.allAvail && f.available
	shift := min(i, len(c.pend)-1-i)
	if inSend {
		if j, ok = position(x.send, len(c.Flows), f); !ok {
			return false
		}
		shift += min(j, len(x.send)-1-j)
	}
	if int(c.shifted)+shift > shiftBudget*len(c.Flows) {
		return false
	}
	c.shifted += int32(shift)
	if inSend {
		x.send, x.sendPorts = cut(x.send, x.sendPorts, j)
	}
	c.pend, _ = cut(c.pend, c.pendPorts(), i)
	c.fold(f, was)
	return true
}

// sweep drops every entry now Done from the lists of a fresh summary at
// epoch was, folding each into the finished-flow figures.
func (c *CoFlow) sweep(was uint64) {
	n, ports := 0, c.pendPorts()
	for i, f := range c.pend {
		if f.done {
			c.fold(f, was)
			continue
		}
		if n != i {
			c.pend[n], ports[n] = f, ports[i]
		}
		n++
	}
	c.pend = c.pend[:n]
	if c.allAvail {
		return
	}
	x := c.extra
	n = 0
	for i, f := range x.send {
		if f.done {
			continue
		}
		if n != i {
			x.send[n], x.sendPorts[n] = f, x.sendPorts[i]
		}
		n++
	}
	x.send, x.sendPorts = x.send[:n], x.sendPorts[:n]
}

// fold adds a flow that just left the lists of a summary fresh at epoch
// was to the finished-flow figures.
func (c *CoFlow) fold(f *Flow, was uint64) {
	c.doneSum += f.sent
	c.doneLast = max(c.doneLast, f.doneAt)
	if x := c.extra; x != nil && x.medEpoch == was {
		k, _ := slices.BinarySearch(x.doneSent, f.sent)
		x.doneSent = slices.Insert(x.doneSent, k, f.sent)
	}
}

// shiftBudget is how many list entries Complete may shift between two
// builds, per flow of the CoFlow. A shifted entry is a copied pointer and
// port pair, cheaper than the flow a build dereferences — until a GC
// cycle puts a write barrier on every pointer copied. Measured on the
// benchmark's workloads, 4 keeps the in-place upkeep of dense-burst's
// wide CoFlows, whose flows finish a few per interval (no slower than
// no bound at all), and hands coordinator-testbed's narrower ones, which
// finish several per boundary under frequent GC, back to one build when
// that is cheaper (64 measured ≈6 % slower there, 2 ≈1.6 % slower on
// dense-burst). Many flows finishing mid-list in one interval —
// quadratic in the width, left unbounded — fall back to one build too.
const shiftBudget = 4

// position finds f in a list of some of a CoFlow's width flows, kept in
// Flows order. The flow at Flows index k sits at list position k less
// the flows before it that the list leaves out, of which there are at
// most width − len(flows), so the search runs over that window: a few
// positions while few flows have finished. A batch finished from either
// end finds each flow at an end of the window.
func position(flows []*Flow, width int, f *Flow) (int, bool) {
	k := f.Index()
	lo, hi := max(0, k-(width-len(flows))), min(k+1, len(flows))
	switch {
	case lo >= hi:
		return 0, false
	case flows[lo] == f:
		return lo, true
	case flows[hi-1] == f:
		return hi - 1, true
	}
	i, ok := slices.BinarySearchFunc(flows[lo:hi], k, func(g *Flow, t int) int { return cmp.Compare(g.Index(), t) })
	i += lo
	return i, ok && flows[i] == f
}

// cut removes position i from a list and from its port view by shifting
// the shorter side of it: the entries after i back, or those before it
// forward and the lists' start past the freed slot. Either way a batch
// of completions finished from one end shifts nothing. A list only
// shrinks between builds, and a build starts over at the capacity left,
// which still holds every pending flow: flows never leave Done.
func cut(flows []*Flow, ports []PortPair, i int) ([]*Flow, []PortPair) {
	n := len(flows) - 1
	switch {
	case i == 0:
		return flows[1:], ports[1:]
	case i == n:
		return flows[:n], ports[:n]
	case i < n-i:
		copy(flows[1:i+1], flows[:i])
		copy(ports[1:i+1], ports[:i])
		return flows[1:], ports[1:]
	}
	copy(flows[i:], flows[i+1:])
	copy(ports[i:], ports[i+1:])
	return flows[:n], ports[:n]
}

// CacheEpoch returns the current mutation epoch. Incremental consumers
// (sched.ContentionIndex) compare it against a stored value to decide
// whether a CoFlow's derived state must be refreshed.
func (c *CoFlow) CacheEpoch() uint64 { return c.epoch }

// ProgressStamp returns the stamp Progress moves for a pending flow. The
// epoch covers everything else that changes, so an unchanged
// (CacheEpoch, ProgressStamp) pair says that nothing a queue rule reads —
// MaxSent, TotalSent, the pending and sendable lists, the finished-flow
// median — has moved, and a scheduler may keep the queue it last derived
// from them.
func (c *CoFlow) ProgressStamp() uint64 { return c.progress }

// sync brings the progress summary up to the current epoch. Epoch 0
// means the CoFlow was built as a zero value rather than via New;
// caching would wrongly treat "never computed" as fresh, so such
// CoFlows recompute every call.
//
//saath:hotpath
func (c *CoFlow) sync() {
	if c.epoch != 0 && c.fresh == c.epoch {
		return
	}
	c.build()
}

// build computes the summary with one pass over Flows: a CoFlow's first
// read, and the first read after a change Complete did not keep.
//
//saath:hotpath
func (c *CoFlow) build() {
	if c.ports == nil {
		c.ports = make([]PortPair, len(c.store)/2) // once per CoFlow storage, on its first read
	}
	c.pend = c.pend[:0]
	ports := c.pendPorts() // empty, with room for every flow pend can hold
	c.allAvail, c.shifted = true, 0
	c.doneSum, c.doneLast = 0, 0
	for _, f := range c.Flows {
		if f.done {
			c.doneSum += f.sent
			c.doneLast = max(c.doneLast, f.doneAt)
			continue
		}
		c.pend = append(c.pend, f)
		ports = append(ports, PortPair{int32(f.Src), int32(f.Dst)})
		if !f.available {
			c.allAvail = false
		}
	}
	if !c.allAvail {
		x := c.extras()
		x.send, x.sendPorts = x.send[:0], x.sendPorts[:0]
		for i, f := range c.pend {
			if f.available {
				x.send = append(x.send, f) // grows with the sendable set: once per CoFlow, and again if Complete trimmed its front
				x.sendPorts = append(x.sendPorts, ports[i])
			}
		}
	}
	c.fresh = c.epoch
}

// extras returns the CoFlow's summaryExtra, allocating it on first use.
func (c *CoFlow) extras() *summaryExtra {
	if c.extra == nil {
		c.extra = &summaryExtra{} // once per CoFlow that holds a flow back or asks DoneMedian
	}
	return c.extra
}

// ID returns the CoFlow's identifier.
func (c *CoFlow) ID() CoFlowID { return c.Spec.ID }

// FlowID names f, one of the CoFlow's flows.
func (c *CoFlow) FlowID(f *Flow) FlowID { return FlowID{CoFlow: c.Spec.ID, Index: f.Index()} }

// Width returns the number of flows.
func (c *CoFlow) Width() int { return len(c.Flows) }

// CCT returns the completion time span, valid once Done.
func (c *CoFlow) CCT() Time { return c.DoneAt - c.Arrived }

// MaxSent returns m_c, the maximum bytes sent by any single flow —
// Saath's queue-assignment signal (Eq. 1). The writers that move Sent
// keep it: Progress (and so Restart) raises it to a flow's new Sent when
// that is at least the maximum, and marks it stale when the flow that
// held the maximum goes down. MaxSent reads
// it, and passes over Flows only when it is stale, which takes a
// restart or a lower rewrite of the flow ahead.
//
//saath:hotpath
func (c *CoFlow) MaxSent() Bytes {
	if c.maxStale {
		c.maxSent, c.maxStale = 0, false
		for _, f := range c.Flows {
			c.maxSent = max(c.maxSent, f.sent)
		}
	}
	return c.maxSent
}

// TotalSent returns the sum of bytes sent by all flows — Aalo's
// queue-assignment signal.
//
//saath:hotpath
func (c *CoFlow) TotalSent() Bytes {
	c.sync()
	total := c.doneSum
	for _, f := range c.pend {
		total += f.sent
	}
	return total
}

// TotalRemaining sums the unsent bytes across flows (clairvoyant).
func (c *CoFlow) TotalRemaining() Bytes {
	var total Bytes
	for _, f := range c.Flows {
		total += f.Remaining()
	}
	return total
}

// PendingFlows returns the flows that are not yet done, in Flows
// order. Like SendableFlows the result is cached per mutation epoch
// and owned by the CoFlow.
//
//saath:hotpath
func (c *CoFlow) PendingFlows() []*Flow {
	c.sync()
	return c.pend
}

// NumPending counts the flows that are not yet done.
func (c *CoFlow) NumPending() int { return len(c.PendingFlows()) }

// DoneMedian returns the median bytes moved by the done flows (zero
// when there are none) — the finished-flow length the dynamics SRTF
// approximation extrapolates from (§4.3). The first call sorts the done
// flows' Sent into a list sized to the CoFlow's width, which Complete then
// keeps sorted; after any other change the next call sorts it afresh. A
// call between two such changes is a read.
//
//saath:hotpath
func (c *CoFlow) DoneMedian() Bytes {
	c.sync()
	x := c.extras()
	if c.epoch == 0 || x.medEpoch != c.epoch {
		if x.doneSent == nil {
			x.doneSent = make([]Bytes, 0, len(c.Flows)) // once per CoFlow, on its first ask
		}
		ys := x.doneSent[:0]
		for _, f := range c.Flows {
			if f.done {
				ys = append(ys, f.sent)
			}
		}
		slices.Sort(ys)
		x.doneSent, x.medEpoch = ys, c.epoch
	}
	ys := x.doneSent
	switch n := len(ys); {
	case n == 0:
		return 0
	case n%2 == 1:
		return ys[n/2]
	default:
		return (ys[n/2-1] + ys[n/2]) / 2
	}
}

// RefreshDone recomputes Done/DoneAt from flow state. It returns true
// if the CoFlow just transitioned to done.
//
//saath:hotpath
func (c *CoFlow) RefreshDone() bool {
	if c.Done || len(c.PendingFlows()) > 0 {
		return false
	}
	c.Done = true
	c.DoneAt = c.doneLast
	return true
}

// Sendable reports whether the flow still has bytes to move and its
// data is available (pipelined frameworks may hold flows back, §4.3).
func (f *Flow) Sendable() bool { return !f.done && f.available }

// SendableFlows returns the flows that can be scheduled right now, in
// Flows order. The result is cached per mutation epoch (see
// CacheEpoch) and the returned slice is owned by the CoFlow: callers
// must not mutate or retain it across epoch changes.
//
//saath:hotpath
func (c *CoFlow) SendableFlows() []*Flow {
	c.sync()
	if c.allAvail {
		return c.pend
	}
	return c.extra.send
}

// SendablePorts returns the (Src, Dst) of every flow SendableFlows
// returns, at the same positions: a scan over ports reads these and
// dereferences SendableFlows()[i] only for a flow it acts on. Owned by
// the CoFlow, like SendableFlows.
//
//saath:hotpath
func (c *CoFlow) SendablePorts() []PortPair {
	c.sync()
	if c.allAvail {
		return c.pendPorts()
	}
	return c.extra.sendPorts
}

// pendPorts is pend's (Src, Dst), position for position: the stretch of
// ports at pend's position in store. Only a cut from the front moves
// pend's start, and it moves the view's start alike; pend's capacity,
// which runs to the end of store, says how far both have moved.
func (c *CoFlow) pendPorts() []PortPair {
	at := len(c.store)/2 - cap(c.pend)
	return c.ports[at : at+len(c.pend)]
}
