package sim

import (
	"cmp"
	"fmt"
	"slices"

	"saath/internal/coflow"
)

// The run loop. Everything that happens in a simulation is an event at
// a δ boundary (or, for DAG-gating completions, at an exact
// mid-interval time), dispatched in (time, kind, key) order. Events
// come from two sources merged on that order:
//
//   - the arrival cursor: the dependency-free specs of the trace,
//     ordered once at load by (δ boundary of their arrival, spec
//     index). Nothing about them changes during a run, so they never
//     enter the heap;
//   - the event heap: the one pending schedule epoch, pipelining
//     availability injections, completions of CoFlows that gate DAG
//     dependents, and the arrivals those completions release.
//
// Within a timestamp the eventKind priorities give: completions release
// dependents, then the boundary's admissions in trace order, then
// availability injections, then the schedule epoch.

// runEvents dispatches events until the simulation completes.
func (e *engine) runEvents() error {
	e.loadArrivals()
	for {
		ok, err := e.step(e.cfg.Delta)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if n := len(e.pending) - e.admitted; n > 0 {
		return fmt.Errorf("sim: %d coflows unreachable (dependency cycle?)", n)
	}
	e.finish()
	return nil
}

// loadArrivals builds the arrival cursor: the indices of the
// dependency-free specs ordered by (δ boundary, spec index). A trace
// already sorted by arrival yields them in order and skips the sort.
func (e *engine) loadArrivals() {
	e.arrivals = make([]int32, 0, len(e.pending))
	sorted, last := true, coflow.Time(0)
	for i := range e.pending {
		spec := e.pending[i].spec
		if len(spec.DependsOn) > 0 {
			continue
		}
		at := e.ceilDelta(spec.Arrival)
		sorted = sorted && at >= last
		last = at
		e.arrivals = append(e.arrivals, int32(i))
	}
	if !sorted {
		slices.SortStableFunc(e.arrivals, func(a, b int32) int {
			return cmp.Compare(e.ceilDelta(e.pending[a].spec.Arrival), e.ceilDelta(e.pending[b].spec.Arrival))
		})
	}
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

// next takes the earlier of the cursor's head arrival and the heap's
// top event; ok is false once both have drained. The cursor arrival
// (t, eventArrival, spec index) goes first unless the heap top is
// strictly ahead of it in (time, kind, key) order: an earlier time, a
// completion at the same time, or a DAG-released arrival at the same
// time with a smaller spec index.
func (e *engine) next() (ev event, ok bool) {
	if e.cursor == len(e.arrivals) {
		return e.evq.pop()
	}
	idx := int(e.arrivals[e.cursor])
	ev = event{time: e.ceilDelta(e.pending[idx].spec.Arrival), kind: eventArrival, key: int64(idx), spec: idx}
	if e.evq.Len() > 0 && e.evq.heap[0].before(&ev) {
		return e.evq.pop()
	}
	e.cursor++
	return ev, true
}

// step dispatches one event; ok is false once none remain. A
// steady-state step — the recurring epoch of a busy cluster with no
// arrivals, completions, or probes — allocates nothing (guarded by
// TestEngineEventSteadyStateZeroAlloc).
//
//saath:hotpath
func (e *engine) step(delta coflow.Time) (bool, error) {
	ev, ok := e.next()
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
		// Horizon is checked at the δ boundaries the simulation is
		// still trying to reach.
		if ev.time > e.cfg.Horizon {
			return false, fmt.Errorf("%w at %v", errHorizon, ev.time)
		}
		e.admitSpec(&e.pending[ev.spec], ev.time)
	case eventAvail:
		e.injectAvail(ev.co)
	case eventEpoch:
		if ev.time > e.cfg.Horizon {
			return false, fmt.Errorf("%w at %v", errHorizon, ev.time)
		}
		e.epochPending = false
		alloc, err := e.beginInterval()
		if err != nil {
			return false, err
		}
		e.observeInterval(alloc)
		// Close the interval: move bytes, retire completions, advance
		// the clock past the boundary, and keep exactly one epoch
		// pending while work remains.
		e.advance(alloc, delta)
		e.now += delta
		if len(e.active) > 0 {
			e.pushEpoch(e.now)
		}
	}
	return true, nil
}

// ceilDelta rounds t up to the next δ boundary — the first boundary at
// which the coordinator could act on something that happens at t.
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
	e.epochPending = true
}

// admitSpec handles one arrival at the δ boundary now: admit the
// coflow, schedule its availability injection if pipelining withheld
// flows, and make sure a schedule epoch is pending for this boundary.
func (e *engine) admitSpec(p *pendingSpec, now coflow.Time) {
	before := e.unavail
	c := e.admitOne(p, now)
	if e.unavail > before {
		// Withheld flows are released at the first boundary at or after
		// c.Arrived+AvailDelay — never before the admission boundary
		// itself.
		at := e.ceilDelta(c.Arrived + e.cfg.Pipelining.AvailDelay)
		if at < now {
			at = now
		}
		e.pushEvent(event{time: at, kind: eventAvail, co: c})
	}
	if !e.epochPending {
		e.pushEpoch(now)
	}
}

// releaseDependents fires when a gating coflow completes: any spec
// whose dependencies are now all retired gets its arrival event at the
// first boundary at or after both its trace arrival and its last
// dependency's completion.
//
//saath:map-ok runs once per gating CoFlow of a DAG trace, on its completion event; the gates name CoFlows by ID
func (e *engine) releaseDependents(c *coflow.CoFlow) {
	for _, idx := range e.dependents[c.ID()] {
		p := &e.pending[idx]
		if p.queued {
			continue
		}
		t := p.spec.Arrival
		ready := true
		for _, id := range p.spec.DependsOn {
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
// fires at the first boundary past their delay, so no time check is
// needed; the flips are idempotent and commutative.
func (e *engine) injectAvail(c *coflow.CoFlow) {
	for _, f := range c.Flows {
		if !f.Available() {
			c.SetAvailable(f, true)
			e.unavail--
		}
	}
}
