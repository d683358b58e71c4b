// Package coflow is a typing stub for analyzer fixtures: hotpath
// matches map keys against the FlowID/CoFlowID named types of any
// package whose path ends in internal/coflow, and detcheck matches
// Flow.Sent, Done and Available writes against CoFlow's stamping
// methods.
package coflow

type CoFlowID int64

type FlowID struct {
	CoFlow CoFlowID
	Index  int
}

type Flow struct {
	Sent      int64
	Done      bool
	Available bool
}

type CoFlow struct{ Flows []*Flow }

func (c *CoFlow) NoteProgress()         {}
func (c *CoFlow) Invalidate()           {}
func (c *CoFlow) Finish(flows ...*Flow) {}
