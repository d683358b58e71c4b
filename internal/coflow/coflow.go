// Package coflow defines the core data model shared by every scheduler,
// the simulator, and the distributed prototype: flows, CoFlows, ports,
// byte counts and simulated time.
//
// A CoFlow is a set of semantically related flows between cluster nodes
// (e.g. all shuffle flows of one MapReduce job). Its completion time
// (CCT) is the span from the arrival of its first flow to the
// completion of its last flow.
//
// A CoFlow carries two stamps its owner moves as it changes the flows,
// and everything derived from a CoFlow is keyed on them. Invalidate
// moves the mutation epoch: call it after a change to any flow's Done or
// Available, or to a finished flow's Sent or DoneAt; the cached pending
// and sendable lists and the finished-flow summary follow it.
// NoteProgress moves the progress stamp: call it after writing the Sent
// of a flow that is not Done. With both unchanged, nothing a scheduler's
// queue rule reads has moved, and the schedulers hold their decisions on
// exactly that (internal/core, internal/sched/aalo). saath-vet's detcheck
// keeps writers of Flow.Sent to it.
package coflow

import (
	"fmt"
	"slices"
	"sort"
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
// port and one ingress (receiver) port on the non-blocking fabric.
type PortID int

// CoFlowID identifies a CoFlow. IDs are unique within a trace.
type CoFlowID int64

// FlowID identifies a flow within its CoFlow by index.
type FlowID struct {
	CoFlow CoFlowID
	Index  int
}

func (id FlowID) String() string { return fmt.Sprintf("c%d/f%d", id.CoFlow, id.Index) }

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

// MaxFlowSize returns the largest flow size, or zero for an empty spec.
func (s *Spec) MaxFlowSize() Bytes {
	var m Bytes
	for _, f := range s.Flows {
		if f.Size > m {
			m = f.Size
		}
	}
	return m
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
type Flow struct {
	ID FlowID
	// Idx is the flow's dense runtime index, assigned by an IndexSpace
	// at admission (or by EnsureIndexed as a fallback). It keys the
	// scheduler's allocation vector (sched.RateVec) and per-flow scratch
	// arrays; -1 until assigned.
	Idx  int
	Src  PortID
	Dst  PortID
	Size Bytes // ground truth; online schedulers must not read it

	Sent      Bytes // bytes moved so far
	Done      bool
	DoneAt    Time
	Available bool // data ready to send (pipelined frameworks, §4.3)

	// Restarted marks a flow whose progress was reset by a node
	// failure; Slowdown > 1 models a straggler whose achievable rate
	// is divided by the factor. Both are injected by the simulator's
	// dynamics layer.
	Restarted bool
	Slowdown  float64
}

// Remaining returns the bytes still to send.
func (f *Flow) Remaining() Bytes {
	r := f.Size - f.Sent
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
	DoneAt  Time

	// Epoch-stamped progress summary. The owner of the CoFlow (the sim
	// engine, the coordinator) bumps the epoch via Invalidate whenever a
	// flow's Done or Available state — or a done flow's Sent/DoneAt —
	// changes. Between two bumps the done flows are frozen, so one pass
	// over Flows per epoch (sync) records everything about them as
	// scalars plus the lists of flows still live; the per-interval
	// accessors then read only the pending flows' Sent, which is the
	// one thing that moves inside an epoch.
	epoch    uint64
	fresh    uint64  // epoch the summary below was computed at
	pend     []*Flow // not-done flows, in Flows order
	sendBuf  []*Flow // sendable flows when some pending flow is held back
	allAvail bool    // every pending flow is Available: sendable == pend
	doneSum  Bytes   // Σ Sent over done flows
	doneMax  Bytes   // max Sent over done flows
	doneLast Time    // max DoneAt over done flows
	medEpoch uint64  // epoch doneMed was computed at
	doneMed  Bytes   // median Sent over done flows

	// progress is the stamp NoteProgress moves: the one thing the epoch
	// does not cover, a pending flow's Sent.
	progress uint64
}

// New instantiates runtime state for a spec. All flows start available
// unless the caller marks them otherwise. The flows live in one slab,
// so a CoFlow costs three allocations whatever its width.
func New(spec *Spec) *CoFlow {
	c := &CoFlow{Spec: spec, Idx: -1, Arrived: spec.Arrival, epoch: 1}
	slab := make([]Flow, len(spec.Flows))
	c.Flows = make([]*Flow, len(spec.Flows))
	for i, fs := range spec.Flows {
		slab[i] = Flow{
			ID:        FlowID{CoFlow: spec.ID, Index: i},
			Idx:       -1,
			Src:       fs.Src,
			Dst:       fs.Dst,
			Size:      fs.Size,
			Available: true,
			Slowdown:  1,
		}
		c.Flows[i] = &slab[i]
	}
	return c
}

// Invalidate bumps the CoFlow's mutation epoch, marking the cached
// progress summary stale. Call it after changing any flow's Done or
// Available state, or the Sent/DoneAt of a flow that is already Done.
func (c *CoFlow) Invalidate() { c.epoch++ }

// CacheEpoch returns the current mutation epoch. Incremental consumers
// (sched.ContentionIndex) compare it against a stored value to decide
// whether a CoFlow's derived state must be refreshed.
func (c *CoFlow) CacheEpoch() uint64 { return c.epoch }

// NoteProgress moves the CoFlow's progress stamp. Call it after writing
// the Sent of a flow that is not Done — the byte movement of an interval,
// a restart's reset, an agent's report. Invalidate covers everything else
// that changes, so an unchanged (CacheEpoch, ProgressStamp) pair says that
// nothing a queue rule reads — MaxSent, TotalSent, the pending and
// sendable lists, the finished-flow median — has moved, and a scheduler
// may keep the queue it last derived from them.
func (c *CoFlow) NoteProgress() { c.progress++ }

// ProgressStamp returns the stamp NoteProgress moves.
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
	if c.pend == nil {
		c.pend = make([]*Flow, 0, len(c.Flows)) //saath:alloc-ok once per CoFlow, on its first epoch
	}
	c.pend, c.sendBuf = c.pend[:0], c.sendBuf[:0]
	c.allAvail = true
	c.doneSum, c.doneMax, c.doneLast = 0, 0, 0
	for _, f := range c.Flows {
		if f.Done {
			c.doneSum += f.Sent
			if f.Sent > c.doneMax {
				c.doneMax = f.Sent
			}
			if f.DoneAt > c.doneLast {
				c.doneLast = f.DoneAt
			}
			continue
		}
		c.pend = append(c.pend, f)
		if !f.Available {
			c.allAvail = false
		}
	}
	if !c.allAvail {
		for _, f := range c.pend {
			if f.Available {
				c.sendBuf = append(c.sendBuf, f)
			}
		}
	}
	c.fresh = c.epoch
}

// ID returns the CoFlow's identifier.
func (c *CoFlow) ID() CoFlowID { return c.Spec.ID }

// Width returns the number of flows.
func (c *CoFlow) Width() int { return len(c.Flows) }

// CCT returns the completion time span, valid once Done.
func (c *CoFlow) CCT() Time { return c.DoneAt - c.Arrived }

// MaxSent returns m_c, the maximum bytes sent by any single flow —
// Saath's queue-assignment signal (Eq. 1).
//
//saath:hotpath
func (c *CoFlow) MaxSent() Bytes {
	c.sync()
	m := c.doneMax
	for _, f := range c.pend {
		if f.Sent > m {
			m = f.Sent
		}
	}
	return m
}

// TotalSent returns the sum of bytes sent by all flows — Aalo's
// queue-assignment signal.
//
//saath:hotpath
func (c *CoFlow) TotalSent() Bytes {
	c.sync()
	total := c.doneSum
	for _, f := range c.pend {
		total += f.Sent
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
// approximation extrapolates from (§4.3). It is computed at most once
// per mutation epoch, sorting in the caller's scratch so the CoFlow
// itself carries no buffer for it.
//
//saath:hotpath
func (c *CoFlow) DoneMedian(scratch *[]Bytes) Bytes {
	c.sync()
	if c.epoch != 0 && c.medEpoch == c.epoch {
		return c.doneMed
	}
	ys := (*scratch)[:0]
	for _, f := range c.Flows {
		if f.Done {
			ys = append(ys, f.Sent)
		}
	}
	*scratch = ys
	slices.Sort(ys)
	c.doneMed = 0
	if n := len(ys); n%2 == 1 {
		c.doneMed = ys[n/2]
	} else if n > 0 {
		c.doneMed = (ys[n/2-1] + ys[n/2]) / 2
	}
	c.medEpoch = c.epoch
	return c.doneMed
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
func (f *Flow) Sendable() bool { return !f.Done && f.Available }

// SendableFlows returns the flows that can be scheduled right now, in
// Flows order. The result is cached per mutation epoch (see
// Invalidate) and the returned slice is owned by the CoFlow: callers
// must not mutate or retain it across epoch changes.
//
//saath:hotpath
func (c *CoFlow) SendableFlows() []*Flow {
	c.sync()
	if c.allAvail {
		return c.pend
	}
	return c.sendBuf
}

// SrcPorts returns the sorted distinct sender nodes of pending flows.
func (c *CoFlow) SrcPorts() []PortID { return c.ports(true) }

// DstPorts returns the sorted distinct receiver nodes of pending flows.
func (c *CoFlow) DstPorts() []PortID { return c.ports(false) }

func (c *CoFlow) ports(src bool) []PortID {
	seen := make(map[PortID]bool)
	for _, f := range c.Flows {
		if f.Done {
			continue
		}
		if src {
			seen[f.Src] = true
		} else {
			seen[f.Dst] = true
		}
	}
	out := make([]PortID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BottleneckRemaining returns Γ, the minimum time to finish the CoFlow
// if every port ran at full capacity bw dedicated to it: the max over
// ports of remaining bytes at that port divided by bw. This is the
// clairvoyant SEBF ordering key (Varys).
func (c *CoFlow) BottleneckRemaining(bw Rate) Time {
	if bw <= 0 {
		return maxTime
	}
	srcRem := make(map[PortID]Bytes)
	dstRem := make(map[PortID]Bytes)
	for _, f := range c.Flows {
		if f.Done {
			continue
		}
		srcRem[f.Src] += f.Remaining()
		dstRem[f.Dst] += f.Remaining()
	}
	var worst Bytes
	//saath:order-independent max over map values is commutative
	for _, b := range srcRem {
		if b > worst {
			worst = b
		}
	}
	//saath:order-independent max over map values is commutative
	for _, b := range dstRem {
		if b > worst {
			worst = b
		}
	}
	return bw.TimeToSend(worst)
}
