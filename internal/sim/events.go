package sim

import (
	"saath/internal/coflow"
	"saath/internal/obs"
)

// The discrete-event core: a deterministic min-heap of typed events.
//
// Ordering is total and explicit — (time, kind priority, key, seq) —
// so two runs of the same simulation pop events in exactly the same
// order regardless of push order or heap layout. The key field carries
// a domain tiebreak (the trace spec index for arrivals, so simultaneous
// admissions replay in trace order); seq is the push counter and breaks
// whatever remains.
//
// The heap holds only what is dynamic — the one pending schedule epoch,
// availability injections, DAG completions and the arrivals they
// release — so it stays a few entries deep; trace arrivals come from
// the engine's sorted cursor instead (see eventloop.go). Events are
// stored by value and a steady-state pop/push pair allocates nothing
// (guarded by TestEngineEventSteadyStateZeroAlloc).

// eventKind types the engine's events. The declaration order is the
// within-timestamp priority: exact-time flow completions resolve
// before the boundary's admissions, admissions before availability
// injections, and those before the schedule epoch.
type eventKind uint8

const (
	// eventFlowDone is the exact-time completion of a CoFlow that gates
	// DAG dependents, fired at its precise DoneAt (generally
	// mid-interval) to release them.
	eventFlowDone eventKind = iota
	// eventArrival admits one trace spec at a δ boundary.
	eventArrival
	// eventAvail is the Pipelining injection seam: it flips a CoFlow's
	// pipelined flows to available once their delay elapses.
	eventAvail
	// eventEpoch recomputes the global schedule at a δ boundary.
	eventEpoch
)

// The run loop counts events in obs.EngineCounters.EventsByKind, an
// array indexed by eventKind (obs cannot import sim): this fails to
// compile unless the enum has exactly obs.NumEventKinds kinds.
var _ = [1]struct{}{}[obs.NumEventKinds-1-int(eventEpoch)]

// event is one scheduled occurrence. Payload fields are a union: spec
// indexes e.pending for arrivals, co names the CoFlow for
// availability injections and completions.
type event struct {
	time coflow.Time
	kind eventKind
	key  int64 // deterministic tiebreak before seq
	spec int
	co   *coflow.CoFlow
	seq  uint64 // push counter, stamped by eventQueue.push
}

// before orders a strictly ahead of b.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// eventQueue is the deterministic binary min-heap. The zero value is
// ready to use.
type eventQueue struct {
	heap []event
	seq  uint64
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return len(q.heap) }

// push schedules ev.
func (q *eventQueue) push(ev event) {
	q.seq++
	ev.seq = q.seq
	q.heap = append(q.heap, ev)
	for i := len(q.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.heap[i].before(&q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// pop removes and returns the earliest event; ok is false on empty.
func (q *eventQueue) pop() (ev event, ok bool) {
	last := len(q.heap) - 1
	if last < 0 {
		return event{}, false
	}
	ev = q.heap[0]
	q.heap[0] = q.heap[last]
	q.heap[last] = event{} // drop the CoFlow pointer
	q.heap = q.heap[:last]
	for i := 0; ; {
		least := 2*i + 1
		if least >= last {
			break
		}
		if right := least + 1; right < last && q.heap[right].before(&q.heap[least]) {
			least = right
		}
		if !q.heap[least].before(&q.heap[i]) {
			break
		}
		q.heap[i], q.heap[least] = q.heap[least], q.heap[i]
		i = least
	}
	return ev, true
}
