// Package hotfixture exercises hotpath: annotated roots, intra-package
// reachability, allocation idioms, and the dense-Idx map-key rule.
package hotfixture

import "saath/internal/coflow"

type sched struct {
	rates   []float64
	buf     []int
	buckets [][]int
	byName  map[string]int
	deps    map[int]bool
}

// Schedule is a hot-path root.
//
//saath:hotpath
func (s *sched) Schedule(n int, q int) {
	ids := make([]int, n)           // want "make allocates per call"
	var m map[coflow.FlowID]float64 // want "map keyed by coflow.FlowID"
	_ = m
	lookup := map[coflow.CoFlowID]int{} // want "map keyed by coflow.CoFlowID" "map literal allocates per call"
	_ = lookup
	s.helper(n)
	s.buf = append(s.buf, n)               // self-append: no finding
	s.buf = append(s.buf[:0], n)           // reuse reslice: no finding
	s.rates = append(s.rates, 1.0)         // self-append through field: no finding
	s.buckets[q] = append(s.buckets[q], n) // indexed self-append: no finding
	var out []int
	out = append(ids, n) // want "append into a different slice"
	_ = out
}

// helper is hot by reachability from Schedule.
func (s *sched) helper(n int) {
	tmp := []int{n} // want "slice literal allocates per call"
	_ = tmp
}

// Setup is hot but exempt wholesale: setup-path allocations.
//
//saath:hotpath
//saath:alloc-ok construction only, never called per tick
func (s *sched) Setup(n int) {
	s.rates = make([]float64, n)
	s.buf = make([]int, 0, n)
}

// Grow is hot with one line-level acceptance.
//
//saath:hotpath
func (s *sched) Grow(n int) {
	s.buf = make([]int, n) //saath:alloc-ok amortized growth
}

// Lookup is hot: any map access is flagged, whatever the key type.
//
//saath:hotpath
func (s *sched) Lookup(name string) int {
	n := s.byName[name] // want "map index hashes per call"
	for range s.deps {  // want "map range walks buckets per call"
		n++
	}
	if s.deps[n] { //saath:alloc-ok retire path only, never at steady state
		n++
	}
	return n + s.buf[0] // slice index: no finding
}

// notHot allocates freely: it is neither annotated nor reachable from
// a hot root.
func notHot(n int) []int {
	return make([]int, n)
}
