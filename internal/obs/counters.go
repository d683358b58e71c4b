package obs

import "time"

// NumEventKinds is the size of the engine's event-kind enum. The
// EventsByKind array is indexed by internal/sim's eventKind values, in
// their declaration order: exact-time completions, trace arrivals,
// availability injections, schedule epochs. internal/sim fails to
// compile unless its enum has this many kinds (sim imports obs, never
// the reverse).
const NumEventKinds = 4

// latencyBuckets is the fixed bucket count of LatencyHist: powers of 4
// from 1µs, so the top bucket bound is ~262ms — generously above any
// sane Schedule call.
const latencyBuckets = 10

// latencyBaseNs is the first bucket's upper bound in nanoseconds.
const latencyBaseNs = 1000

// LatencyHist is a fixed-layout log-scale histogram of nanosecond
// durations (bounds: powers of 4 from 1µs). The fixed array keeps
// Observe allocation-free, which is what lets the engine record every
// Schedule call's latency without breaking the zero-alloc steady-state
// guarantee.
type LatencyHist struct {
	Count    int64                 `json:"count"`
	SumNs    int64                 `json:"sum_ns"`
	MaxNs    int64                 `json:"max_ns"`
	Buckets  [latencyBuckets]int64 `json:"buckets"`
	Overflow int64                 `json:"overflow,omitempty"`
}

// Observe records one duration. Zero-alloc.
func (h *LatencyHist) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.Count++
	h.SumNs += ns
	if ns > h.MaxNs {
		h.MaxNs = ns
	}
	bound := int64(latencyBaseNs)
	for i := range h.Buckets {
		if ns <= bound {
			h.Buckets[i]++
			return
		}
		bound *= 4
	}
	h.Overflow++
}

// Merge adds other's observations into h.
func (h *LatencyHist) Merge(other *LatencyHist) {
	h.Count += other.Count
	h.SumNs += other.SumNs
	if other.MaxNs > h.MaxNs {
		h.MaxNs = other.MaxNs
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Overflow += other.Overflow
}

// EngineCounters is the engine's introspection sink: attach one per
// run via sim.Config.Counters and the run loop counts into it. Every
// field update is a nil-checked integer increment — the disabled path
// (nil Counters) and the enabled path are both zero-alloc in steady
// state. Counters are out-of-band: they never appear in Result or any
// deterministic export, only in the obs manifest.
//
// Attach a fresh instance per run; sharing one across runs sums them
// (which Merge also does explicitly).
type EngineCounters struct {
	// Epochs counts scheduling intervals (Schedule calls).
	Epochs int64 `json:"epochs"`
	// Admitted / Retired count CoFlows entering and leaving the cluster.
	Admitted int64 `json:"admitted"`
	Retired  int64 `json:"retired"`
	// EventsDispatched counts run-loop dispatches; EventsByKind splits
	// them by eventKind (see NumEventKinds).
	EventsDispatched int64                `json:"events_dispatched,omitempty"`
	EventsByKind     [NumEventKinds]int64 `json:"events_by_kind"`
	// HeapPushes counts event-heap insertions (trace arrivals come from
	// the engine's cursor and are not among them), HeapMax is the heap
	// depth high-water mark.
	HeapPushes int64 `json:"heap_pushes,omitempty"`
	HeapMax    int64 `json:"heap_max,omitempty"`
	// RatedFlows sums, over epochs, the flows the allocation gave a rate;
	// FlowsWalked the flows the engine's observe and advance passes
	// visited. An epoch costs the flows holding a rate, so on a cluster
	// that serves few of its pending flows FlowsWalked tracks 2·RatedFlows,
	// not the pending population.
	RatedFlows  int64 `json:"rated_flows,omitempty"`
	FlowsWalked int64 `json:"flows_walked,omitempty"`
	// HeldEpochs counts the epochs whose policy handed out its previous
	// vector untouched over an unchanged live set, so the engine kept its
	// audit verdict and rated list instead of redoing them.
	HeldEpochs int64 `json:"held_epochs,omitempty"`
	// Schedule is the wall-clock latency histogram of Schedule calls.
	Schedule LatencyHist `json:"schedule_latency"`
}

// Merge adds other into c: sums everywhere, max for HeapMax.
func (c *EngineCounters) Merge(other *EngineCounters) {
	if other == nil {
		return
	}
	c.Epochs += other.Epochs
	c.Admitted += other.Admitted
	c.Retired += other.Retired
	c.EventsDispatched += other.EventsDispatched
	for i := range c.EventsByKind {
		c.EventsByKind[i] += other.EventsByKind[i]
	}
	c.HeapPushes += other.HeapPushes
	if other.HeapMax > c.HeapMax {
		c.HeapMax = other.HeapMax
	}
	c.RatedFlows += other.RatedFlows
	c.FlowsWalked += other.FlowsWalked
	c.HeldEpochs += other.HeldEpochs
	c.Schedule.Merge(&other.Schedule)
}
