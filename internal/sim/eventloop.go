package sim

import (
	"fmt"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// The discrete-event run loop (ModeEvent). It executes exactly the
// same simulation as runTicks — schedule epochs at the same δ
// boundaries, admissions at the same boundaries in the same order,
// the same beginInterval/observeInterval/advance interval body — but
// drives everything from the deterministic event heap, so idle
// stretches between coflows and the tick engine's O(pending) scans
// per boundary cost nothing.
//
// Within-timestamp ordering (the eventKind priorities) mirrors one
// tick-loop iteration: exact-time completions release dependents
// first, then the boundary's admissions in trace order, then
// pipelining availability injections, then the schedule epoch, then
// telemetry emission.

// runEvents drains the event heap until the simulation completes.
func (e *engine) runEvents() error {
	delta := e.cfg.Delta
	e.evq = &eventQueue{}
	e.epochAt = -1
	e.loadEvents()
	for {
		ok, err := e.step(delta)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if n := e.unreleasedCount(); n > 0 {
		return fmt.Errorf("sim: %d coflows unreachable (dependency cycle?)", n)
	}
	if c := e.cfg.Counters; c != nil {
		c.HeapCancels += e.evq.cancels
	}
	e.result.Makespan = e.now
	if e.result.Intervals > 0 {
		e.result.AvgEgressUtilization = e.utilSum / float64(e.result.Intervals)
	}
	return nil
}

// pushEvent schedules ev through the introspection seam: every heap
// insertion is counted and the depth high-water mark maintained when
// counters are attached. All engine push sites go through here.
func (e *engine) pushEvent(ev event) {
	e.evq.push(ev)
	if c := e.cfg.Counters; c != nil {
		c.HeapPushes++
		if n := int64(e.evq.Len()); n > c.HeapMax {
			c.HeapMax = n
		}
	}
}

// step pops and dispatches one event; ok is false once the heap has
// drained. A steady-state step — the recurring epoch of a busy cluster
// with no arrivals, completions, or probes — allocates nothing
// (guarded by TestEngineEventSteadyStateZeroAlloc).
//
//saath:hotpath
func (e *engine) step(delta coflow.Time) (bool, error) {
	ev, ok := e.evq.pop()
	if !ok {
		return false, nil
	}
	if c := e.cfg.Counters; c != nil {
		c.EventsDispatched++
		c.EventsByKind[ev.kind]++
	}
	// The clock only moves forward: completion events carry exact
	// mid-interval times that the post-interval clock has already
	// passed.
	if ev.time > e.now {
		e.now = ev.time
	}
	switch ev.kind {
	case eventFlowDone:
		e.releaseDependents(ev.co)
	case eventArrival:
		// Horizon is checked where the tick loop checks it: at δ
		// boundaries the simulation is still trying to reach.
		if ev.time > e.cfg.Horizon {
			return false, fmt.Errorf("%w at %v", errHorizon, ev.time)
		}
		e.admitSpec(e.pending[ev.spec], ev.time)
	case eventAvail:
		e.injectAvail(ev.co)
	case eventEpoch:
		if ev.time > e.cfg.Horizon {
			return false, fmt.Errorf("%w at %v", errHorizon, ev.time)
		}
		e.epochAt = -1
		alloc, err := e.beginInterval()
		if err != nil {
			return false, err
		}
		if len(e.cfg.Probes) > 0 {
			// Probe emission is its own event, consuming the interval
			// the epoch just scheduled. Nothing can pop between the
			// two: they share a timestamp and only eventProbe sorts
			// after eventEpoch.
			e.pendingAlloc = alloc
			e.pushEvent(event{time: ev.time, kind: eventProbe})
		} else {
			e.observeInterval(alloc)
			e.finishInterval(alloc, delta)
		}
	case eventProbe:
		alloc := e.pendingAlloc
		e.pendingAlloc = nil
		e.observeInterval(alloc)
		e.finishInterval(alloc, delta)
	}
	return true, nil
}

// loadEvents seeds the heap: every dependency-free spec gets its
// arrival event up front, keyed by spec index so simultaneous
// admissions replay in trace order; dependency-gated specs are indexed
// by the coflows they wait on and enter the heap from releaseDependents
// when their last dependency completes.
func (e *engine) loadEvents() {
	for i, p := range e.pending {
		if len(p.deps) == 0 {
			p.queued = true
			e.pushEvent(event{
				time: e.ceilDelta(p.spec.Arrival),
				kind: eventArrival,
				key:  int64(i),
				spec: i,
			})
			continue
		}
		if e.dependents == nil {
			e.dependents = make(map[coflow.CoFlowID][]int)
		}
		for id := range p.deps {
			e.dependents[id] = append(e.dependents[id], i)
		}
	}
}

// ceilDelta rounds t up to the next δ boundary — the first boundary at
// which the tick engine could act on something that happens at t.
func (e *engine) ceilDelta(t coflow.Time) coflow.Time {
	if t <= 0 {
		return 0
	}
	delta := e.cfg.Delta
	return ((t + delta - 1) / delta) * delta
}

// pushEpoch schedules the single pending schedule epoch.
func (e *engine) pushEpoch(t coflow.Time) {
	e.pushEvent(event{time: t, kind: eventEpoch})
	e.epochAt = t
}

// admitSpec handles one arrival event at the δ boundary now: admit the
// coflow through the shared path, schedule its availability injection
// if pipelining withheld flows, and make sure a schedule epoch is
// pending for this boundary.
func (e *engine) admitSpec(p *pendingSpec, now coflow.Time) {
	before := e.unavail
	c := e.admitOne(p, now)
	if e.unavail > before {
		// The tick engine releases withheld flows at the first boundary
		// it visits once c.Arrived+AvailDelay has passed — never before
		// the admission boundary itself.
		at := e.ceilDelta(c.Arrived + e.cfg.Pipelining.AvailDelay)
		if at < now {
			at = now
		}
		e.pushEvent(event{time: at, kind: eventAvail, co: c})
	}
	if e.epochAt < 0 {
		e.pushEpoch(now)
	}
}

// releaseDependents fires when a gating coflow completes: any spec
// whose dependencies are now all retired gets its arrival event at the
// boundary where the tick engine's pending scan would admit it.
//
//saath:alloc-ok runs once per gating CoFlow of a DAG trace, on its completion event; the gates name CoFlows by ID
func (e *engine) releaseDependents(c *coflow.CoFlow) {
	for _, idx := range e.dependents[c.ID()] {
		p := e.pending[idx]
		if p.queued || p.released {
			continue
		}
		t := p.spec.Arrival
		ready := true
		//saath:order-independent max over dep completion times; early not-done exit yields the same bool
		for id := range p.deps {
			dt, done := e.doneAt[id]
			if !done {
				ready = false
				break
			}
			if dt > t {
				t = dt
			}
		}
		if !ready {
			continue
		}
		at := e.ceilDelta(t)
		if at < e.now {
			// The interval that retired the last dependency has already
			// run; the earliest boundary left is the post-interval clock.
			at = e.now
		}
		p.queued = true
		e.pushEvent(event{time: at, kind: eventArrival, key: int64(idx), spec: idx})
	}
}

// injectAvail releases a coflow's pipelining-withheld flows. The event
// fires at the boundary refreshAvailability would have caught them, so
// no time check is needed; the flips are idempotent and commutative.
func (e *engine) injectAvail(c *coflow.CoFlow) {
	changed := false
	for _, f := range c.Flows {
		if !f.Available {
			f.Available = true
			e.unavail--
			changed = true
		}
	}
	if changed {
		c.Invalidate()
	}
}

// finishInterval closes the interval the current epoch opened: move
// bytes, retire completions, advance the clock past the boundary, and
// keep exactly one epoch pending while work remains. Steady state —
// no arrivals, completions, or probes — allocates nothing (guarded by
// TestEngineEventSteadyStateZeroAlloc).
func (e *engine) finishInterval(alloc *sched.RateVec, delta coflow.Time) {
	e.advance(alloc, delta)
	e.now += delta
	if len(e.active) > 0 {
		e.pushEpoch(e.now)
	}
}
