package obs

import "time"

// Span is one timed phase of an execution — a study compile, a job's
// trace synthesis, the run loop, an export — with nested children
// forming the run trace. Spans record wall-clock into the obs side
// channel only ("deterministic-safe"): they never feed simulation
// state or any byte-pinned export, so timings may differ run to run
// while every golden still holds.
//
// All methods are nil-receiver safe: a disabled recorder hands out nil
// spans and the instrumentation sites need no branching.
type Span struct {
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_unix_ns"`
	DurNs    int64   `json:"dur_ns"`
	Children []*Span `json:"children,omitempty"`
}

// StartSpan opens a root span at the current wall clock.
func StartSpan(name string) *Span {
	return &Span{Name: name, StartNs: time.Now().UnixNano()}
}

// Child opens and attaches a nested span. Returns nil on a nil
// receiver. Not safe for concurrent Child calls on one parent — give
// each goroutine its own span (the sweep does: one job span per job).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	s.Children = append(s.Children, c)
	return c
}

// End closes the span. Idempotent: the first call wins.
func (s *Span) End() {
	if s == nil || s.DurNs != 0 {
		return
	}
	s.DurNs = time.Now().UnixNano() - s.StartNs
}

// Duration returns the recorded duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurNs)
}
