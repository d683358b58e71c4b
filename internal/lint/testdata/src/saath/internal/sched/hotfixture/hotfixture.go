// Package hotfixture exercises hotpath: annotated roots, intra-package
// reachability, and the dense-Idx map rules.
package hotfixture

import "saath/internal/coflow"

type sched struct {
	buf    []int
	byName map[string]int
	deps   map[int]bool
}

// Schedule is a hot-path root.
//
//saath:hotpath
func (s *sched) Schedule(n int) {
	var m map[coflow.FlowID]float64 // want "map keyed by coflow.FlowID"
	_ = m
	s.helper(n)
	s.buf = append(s.buf, make([]int, n)...) // allocations are the guards' business: no finding
}

// helper is hot by reachability from Schedule.
func (s *sched) helper(n int) {
	lookup := map[coflow.CoFlowID]int{} // want "map keyed by coflow.CoFlowID"
	_ = lookup[coflow.CoFlowID(n)]      // want "map index hashes per call"
}

// Retire is hot but exempt wholesale: retire-path map work.
//
//saath:hotpath
//saath:map-ok retire path only, never called per tick
func (s *sched) Retire(n int) {
	delete(s.deps, n)
	_ = s.deps[n]
}

// Lookup is hot: any map access is flagged, whatever the key type.
//
//saath:hotpath
func (s *sched) Lookup(name string) int {
	n := s.byName[name] // want "map index hashes per call"
	for range s.deps {  // want "map range walks buckets per call"
		n++
	}
	if s.deps[n] { //saath:map-ok retire path only, never at steady state
		n++
	}
	return n + s.buf[0] // slice index: no finding
}

// notHot reads maps freely: it is neither annotated nor reachable from
// a hot root.
func notHot(m map[string]int) int {
	return m["x"]
}
