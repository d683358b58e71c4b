// Package coflow is a typing stub for analyzer fixtures: hotpath
// matches map keys against the FlowID/CoFlowID named types of any
// package whose path ends in internal/coflow.
package coflow

type CoFlowID int64

type FlowID struct {
	CoFlow CoFlowID
	Index  int
}
