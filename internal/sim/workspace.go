package sim

import (
	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/trace"
)

// Workspace is the storage a run leaves for the next run on it: the
// flow storage of retired CoFlows (coflow.Spares), the index space's
// free lists, the tables keyed by Flow.Idx and CoFlow.Idx, the audit
// ledgers, the snapshot's allocation vector, the rated lists, the
// active and snapshot scratch and the event heap. What is the run's
// own — its Result and per-flow rows, the pending specs, the RNGs, the
// held plan, the fabric — is made per run; of the rest, a run allocates
// what outgrows the storage it was handed. It returns the Result a
// fresh workspace gives, bit for bit (TestWorkspaceReuseMatchesFresh,
// FuzzWorkspaceReuse).
//
// The zero value is an empty workspace. A Workspace has one owner, who
// runs one simulation on it at a time, like coflow.Spares. Between runs
// it holds storage and no state: a run hands it back cleared, and a run
// that fails — returns an error or panics — leaves it empty, since a
// failed audit leaves its ledgers dirty and a panic can leave any table
// halfway through an update.
type Workspace struct {
	// spares is the flow storage of retired CoFlows, which admitOne draws
	// arrivals from.
	spares coflow.Spares
	// space hands out the dense flow/coflow indices that key the
	// allocation vector and every per-flow scratch array.
	space coflow.IndexSpace

	// active is the live CoFlows, in admission order.
	active []*coflow.CoFlow

	// restartPending marks flows rolled for a one-time mid-life restart,
	// by Flow.Idx; retire clears a CoFlow's slots with its indices.
	restartPending []bool

	// Per-interval scratch state, reused across intervals so the hot
	// loop allocates nothing: the snapshot (whose Alloc vector the
	// scheduler reuses), the sorted-active scratch, and the dense
	// validation ledgers with the ports whose ledger is non-zero.
	// valFlows maps Flow.Idx to the live flow holding it and its CoFlow,
	// maintained at admission and retirement.
	snap        sched.Snapshot
	snapScratch []*coflow.CoFlow
	valFlows    []flowSlot
	valEgress   []float64
	valIngress  []float64
	valPorts    []coflow.PortID

	// The interval's rated list (see rateDriven): the sendable flows
	// holding a rate, in observeInterval's summation order. ratedRaw is
	// the list before ordering, ratedRun the per-CoFlow.Idx run counts and
	// offsets that order it, all zero between builds.
	rated    []ratedFlow
	ratedRaw []ratedFlow
	ratedRun []int32

	// finished holds one CoFlow's completions during the dense walk,
	// until the walk is over and they are completed in its summary.
	finished []coflow.Completion

	// evq is the event heap.
	evq eventQueue
}

// Run replays tr under scheduler s, once cfg passes Validate, on the
// storage earlier runs on w left. It only reads tr, as Run does.
func (w *Workspace) Run(tr *trace.Trace, s sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := w.newEngine(tr, s, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.runEvents(); err != nil {
		return nil, err
	}
	*w = e.handBack()
	return e.result, nil
}

// handBack is the storage of a run that completed, cleared for the next
// one: every CoFlow retired, so the index space starts over and the
// Flow.Idx- and CoFlow.Idx-keyed tables are empty (coflow.Grow zeroes
// what it exposes again); the ledgers are cleared at the ports valPorts
// lists; and the scratch lists drop their pointers to this run's
// CoFlows, which would keep its trace alive.
func (e *engine) handBack() Workspace {
	ws := e.Workspace
	ws.space.Reset()
	ws.valFlows = ws.valFlows[:0]
	ws.restartPending = ws.restartPending[:0]
	ws.ratedRun = ws.ratedRun[:0]
	for _, p := range ws.valPorts {
		ws.valEgress[p], ws.valIngress[p] = 0, 0
	}
	ws.valPorts = ws.valPorts[:0]
	ws.snap = sched.Snapshot{Alloc: ws.snap.Alloc}
	ws.active = dropAll(ws.active)
	ws.snapScratch = dropAll(ws.snapScratch)
	ws.rated = dropAll(ws.rated)
	ws.ratedRaw = dropAll(ws.ratedRaw)
	ws.finished = dropAll(ws.finished)
	ws.evq = eventQueue{heap: ws.evq.heap[:0]}
	return ws
}

// dropAll empties s and zeroes its whole backing array.
func dropAll[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}
