package sweep

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"saath/internal/obs"
)

// TestObserverCollectsManifest runs the determinism grid with a
// recorder attached and checks the manifest: one record per job in
// grid order, phase spans present, counters filled.
// hasPhase reports whether a job span has a phase child named name.
func hasPhase(s *obs.Span, name string) bool {
	return slices.ContainsFunc(s.Children, func(c *obs.Span) bool { return c.Name == name })
}

func TestObserverCollectsManifest(t *testing.T) {
	jobs := testGrid().Jobs()
	rec := obs.NewRecorder("test-grid")
	res := Run(context.Background(), jobs, Options{Parallel: 4, Observer: rec})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	m := rec.Manifest()
	if len(m.Jobs) != len(jobs) {
		t.Fatalf("manifest has %d jobs, want %d", len(m.Jobs), len(jobs))
	}
	for i, jrec := range m.Jobs {
		if jrec.Index != i {
			t.Fatalf("manifest job %d has index %d (not grid order)", i, jrec.Index)
		}
		if jrec.Span == nil || !hasPhase(jrec.Span, "run") || !hasPhase(jrec.Span, "trace-synth") {
			t.Fatalf("job %d missing phase spans: %+v", i, jrec.Span)
		}
		if jrec.Span.Duration() <= 0 {
			t.Errorf("job %d span has no duration", i)
		}
		if jrec.Counters == nil || jrec.Counters.Epochs == 0 || jrec.Counters.Retired == 0 {
			t.Errorf("job %d counters empty: %+v", i, jrec.Counters)
		}
	}
	if m.Totals.Jobs != len(jobs) || m.Totals.Failed != 0 {
		t.Errorf("totals = %+v", m.Totals)
	}
	if m.Totals.Counters.Epochs == 0 || m.Totals.JobNs == 0 {
		t.Errorf("aggregate counters empty: %+v", m.Totals)
	}
	if m.Totals.Counters.EventsDispatched == 0 || m.Totals.Counters.HeapPushes == 0 {
		t.Errorf("aggregate run-loop counters empty: %+v", m.Totals.Counters)
	}
}

// TestObserverDoesNotPerturbSummary is the sweep-level out-of-band
// guarantee: summary JSON and tables are byte-identical with and
// without an observer attached, at any parallelism.
func TestObserverDoesNotPerturbSummary(t *testing.T) {
	jobs := testGrid().Jobs()
	bareJS, bareTB := runSummary(t, jobs, 1)

	sum := NewSummary()
	rec := obs.NewRecorder("test-grid")
	meter := NewProgressMeter(&bytes.Buffer{}, 0, jobs)
	res := Run(context.Background(), jobs, Options{
		Parallel:   8,
		Collectors: []Collector{sum},
		Observer:   rec,
		Progress:   meter.Progress,
	})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := sum.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var tables strings.Builder
	if err := sum.CCTTable("cct").Render(&tables); err != nil {
		t.Fatal(err)
	}
	if err := sum.SpeedupTable("speedup", "aalo").Render(&tables); err != nil {
		t.Fatal(err)
	}
	if js.String() != bareJS {
		t.Errorf("summary JSON differs with observer attached:\n--- bare ---\n%s\n--- observed ---\n%s", bareJS, js.String())
	}
	if tables.String() != bareTB {
		t.Errorf("tables differ with observer attached:\n--- bare ---\n%s\n--- observed ---\n%s", bareTB, tables.String())
	}
}

// TestCapacityCells checks the pooled capacity export against the
// grid: one cell per (trace, variant, scheduler), throughput positive,
// ports carried through from the simulation.
func TestCapacityCells(t *testing.T) {
	jobs := testGrid().Jobs()
	sum := NewSummary()
	res := Run(context.Background(), jobs, Options{Parallel: 4, Collectors: []Collector{sum}})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	cells := sum.CapacityCells()
	if len(cells) != 8 { // 2 traces × 2 variants × 2 schedulers
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	for _, c := range cells {
		if c.Runs != 3 { // seeds pooled
			t.Errorf("%s %s: runs = %d, want 3", c.Workload(), c.Scheduler, c.Runs)
		}
		if c.Ports != 10 {
			t.Errorf("%s: ports = %d, want 10", c.Workload(), c.Ports)
		}
		if c.Throughput <= 0 || c.P99CCT <= 0 {
			t.Errorf("%s %s: throughput %v p99 %v", c.Workload(), c.Scheduler, c.Throughput, c.P99CCT)
		}
		if c.P50CCT > c.P99CCT {
			t.Errorf("%s %s: p50 %v > p99 %v", c.Workload(), c.Scheduler, c.P50CCT, c.P99CCT)
		}
	}
}
