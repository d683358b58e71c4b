package saath

// Observability-layer benchmarks and allocation guards. The obs layer
// sits on the engine's hottest paths — counter bumps inside the event
// dispatch loop and a latency-histogram observation per schedule call
// — so its cost contract is explicit: the counter/histogram step
// allocates exactly nothing, and the per-job span record (root plus
// three phase children, the shape internal/sweep writes per job) stays
// within 1.25x of the allocations recorded in BENCH_baseline.json's
// obs_layer section (bench_guards_test.go).

import (
	"testing"

	"saath/internal/obs"
)

// jobSpanPhases is the per-job span shape runJob records.
var jobSpanPhases = [...]string{"trace-synth", "run", "export"}

// recordJobSpan builds and closes one job-shaped span tree.
func recordJobSpan() *obs.Span {
	root := obs.StartSpan("job:bench")
	for _, phase := range jobSpanPhases {
		root.Child(phase).End()
	}
	root.End()
	return root
}

// counterStep is one engine observation step: the per-dispatch
// counter bumps plus a schedule-latency observation —
// everything the engine does per interval when counters are attached.
func counterStep(c *obs.EngineCounters, i int) {
	c.Epochs++
	c.HeldEpochs++
	c.EventsDispatched++
	c.EventsByKind[i%obs.NumEventKinds]++
	c.HeapPushes++
	if n := int64(i % 64); n > c.HeapMax {
		c.HeapMax = n
	}
	c.Schedule.Observe(1 << (uint(i) % 20))
}

// BenchmarkObsSpanRecord measures one per-job span record.
func BenchmarkObsSpanRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := recordJobSpan(); len(s.Children) != len(jobSpanPhases) {
			b.Fatal("span tree lost a phase")
		}
	}
}

// BenchmarkObsCounterStep measures the engine's per-interval counter
// path; it must report zero allocations.
func BenchmarkObsCounterStep(b *testing.B) {
	var c obs.EngineCounters
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counterStep(&c, i)
	}
	if c.Schedule.Count != int64(b.N) {
		b.Fatalf("histogram observed %d of %d steps", c.Schedule.Count, b.N)
	}
}
