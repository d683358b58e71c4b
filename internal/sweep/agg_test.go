package sweep

import (
	"context"
	"errors"
	"slices"
	"testing"

	"saath/internal/report"
	"saath/internal/telemetry"
)

// TestCellAtFirstKeptJob pins the row order when a cell's first job
// errored: the cell sits at its first successful job, in the CCT
// table and the telemetry table alike, so the cell whose first job
// comes later in the grid but completed leads.
func TestCellAtFirstKeptJob(t *testing.T) {
	g := Grid{
		Traces:     []TraceSource{tinySource("tiny")},
		Schedulers: []string{"aalo", "saath"},
		Seeds:      []int64{1, 2},
		Telemetry:  telemetry.Spec{Enabled: true},
	}
	jobs := g.Jobs() // aalo/1, saath/1, aalo/2, saath/2
	res := Run(context.Background(), jobs, Options{Parallel: 1})
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	res.Jobs[0] = JobResult{Job: jobs[0], Err: errors.New("boom")}
	sum := NewSummary()
	for _, jr := range res.Jobs {
		sum.Add(jr)
	}
	for _, tbl := range []*report.Table{sum.CCTTable("cct"), sum.TelemetryTable("telemetry")} {
		var got []string
		for _, row := range tbl.Rows {
			got = append(got, row[1]+" runs="+row[2])
		}
		if want := []string{"saath runs=2", "aalo runs=1"}; !slices.Equal(got, want) {
			t.Errorf("%s rows = %q, want %q", tbl.Title, got, want)
		}
	}
}
