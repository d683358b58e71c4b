package sim

import (
	"fmt"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/trace"
)

// The reference stepper: the discrete-time loop the event engine
// replaced, kept as the oracle of the differential tests. While any
// CoFlow is active it visits every δ boundary, scans the whole pending
// trace for releases, refreshes pipelined availability, then runs one
// interval through the engine's own admitOne / beginInterval /
// observeInterval / advance. It knows nothing of the arrival cursor or
// the event heap (the completion events retire pushes pile up unread in
// e.evq), so agreement with Run — bit for bit, RNG draws and telemetry
// included — checks exactly the run loop's ordering logic.

// runReference replays tr under s with the reference stepper.
func runReference(tr *trace.Trace, s sched.Scheduler, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(tr, s, cfg)
	if err != nil {
		return nil, err
	}
	ref := &stepper{engine: e, released: make([]bool, len(e.pending))}
	if err := ref.runTicks(); err != nil {
		return nil, err
	}
	return e.result, nil
}

// stepper is an engine driven boundary by boundary; released marks the
// specs it has admitted, by spec index.
type stepper struct {
	*engine
	released []bool
}

func (e *stepper) runTicks() error {
	delta := e.cfg.Delta
	for {
		// Jump over idle gaps to the next δ boundary at or after the
		// next release.
		if len(e.active) == 0 {
			na := e.nextArrival()
			if na < 0 {
				if n := len(e.pending) - e.admitted; n > 0 {
					return fmt.Errorf("sim: %d coflows unreachable (dependency cycle?)", n)
				}
				break // drained
			}
			if na > e.now {
				steps := (na - e.now + delta - 1) / delta
				e.now += steps * delta
			}
		}
		if e.now > e.cfg.Horizon {
			return fmt.Errorf("%w at %v", errHorizon, e.now)
		}
		e.admit(e.now)
		e.refreshAvailability(e.now)
		if len(e.active) == 0 {
			continue // the top of the loop re-evaluates releases
		}
		alloc, err := e.beginInterval()
		if err != nil {
			return err
		}
		e.observeInterval(alloc)
		e.advance(alloc, delta)
		e.now += delta
	}
	e.finish()
	return nil
}

// depsDone reports whether every dependency of p has retired, and the
// latest of their completion times.
func (e *stepper) depsDone(p *pendingSpec) (coflow.Time, bool) {
	var last coflow.Time
	for _, id := range p.spec.DependsOn {
		dt, done := e.doneAt[id]
		if !done {
			return 0, false
		}
		last = max(last, dt)
	}
	return last, true
}

// admit releases, in trace order, every spec whose arrival time and
// dependencies allow.
func (e *stepper) admit(now coflow.Time) {
	for i := range e.pending {
		p := &e.pending[i]
		if e.released[i] || p.spec.Arrival > now {
			continue
		}
		if _, ok := e.depsDone(p); ok {
			e.released[i] = true
			e.admitOne(p, now)
		}
	}
}

// refreshAvailability releases pipelined flows whose delay elapsed.
func (e *stepper) refreshAvailability(now coflow.Time) {
	p := e.cfg.Pipelining
	if p == nil || e.unavail == 0 {
		return
	}
	for _, c := range e.active {
		for _, f := range c.Flows {
			if !f.Available() && now >= c.Arrived+p.AvailDelay {
				c.SetAvailable(f, true)
				e.unavail--
			}
		}
	}
}

// nextArrival returns the earliest pending release time, or -1. Specs
// with an unfinished dependency are released by a completion, not by
// time.
func (e *stepper) nextArrival() coflow.Time {
	next := coflow.Time(-1)
	for i := range e.pending {
		p := &e.pending[i]
		if e.released[i] {
			continue
		}
		depDone, ready := e.depsDone(p)
		if !ready {
			continue
		}
		if t := max(p.spec.Arrival, depDone); next < 0 || t < next {
			next = t
		}
	}
	return next
}
