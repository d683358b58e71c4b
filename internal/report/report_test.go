package report

import (
	"strings"
	"testing"

	"saath/internal/stats"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "demo", Headers: []string{"name", "value"}}
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", 42)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "1.500", "42", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + sep + 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestCDFTable(t *testing.T) {
	cdf := stats.CDF([]float64{1, 2, 3, 4})
	tbl := CDFTable("cdf", "speedup", cdf)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Headers[0] != "speedup" {
		t.Fatal("header")
	}
}

func TestSampledCDFTable(t *testing.T) {
	var xs []float64
	for i := 0; i < 1000; i++ {
		xs = append(xs, float64(i))
	}
	cdf := stats.CDF(xs)
	tbl := SampledCDFTable("big", "x", cdf, 20)
	if len(tbl.Rows) != 20 {
		t.Fatalf("sampled rows = %d", len(tbl.Rows))
	}
	// endpoints preserved
	if tbl.Rows[0][0] != "0" || tbl.Rows[19][0] != "999" {
		t.Fatalf("endpoints = %v, %v", tbl.Rows[0], tbl.Rows[19])
	}
	// no-op when already small
	small := SampledCDFTable("s", "x", cdf[:5], 20)
	if len(small.Rows) != 5 {
		t.Fatalf("small rows = %d", len(small.Rows))
	}
}

func TestSpeedupBar(t *testing.T) {
	series := map[string]stats.SpeedupSummary{
		"aalo":  stats.Summarize([]float64{1, 1.5, 2}),
		"varys": stats.Summarize([]float64{0.9, 1.0, 1.1}),
	}
	tbl := SpeedupBar("fig9", series, []string{"varys", "aalo", "missing"})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "varys" || tbl.Rows[1][0] != "aalo" {
		t.Fatalf("order = %v", tbl.Rows)
	}
}

// TestSampledXYTable holds sampleIndices, the downsampler the deleted
// (x, y) table shared with SampledCDFTable, to the cases it was tested
// on there: a 10-point series sampled to 4 keeps 4 points and the last;
// n == 1 must not panic (regression: int(NaN) index) and keeps the last
// point; n <= 0 and n >= len keep everything.
func TestSampledXYTable(t *testing.T) {
	if idx := sampleIndices(10, 4); len(idx) != 4 || idx[0] != 0 || idx[3] != 9 {
		t.Fatalf("sampleIndices(10, 4) = %v, want 4 indices from 0 to 9", idx)
	}
	if idx := sampleIndices(10, 1); len(idx) != 1 || idx[0] != 9 {
		t.Fatalf("sampleIndices(10, 1) = %v, want [9]", idx)
	}
	for _, n := range []int{0, -1, 10, 11} {
		if idx := sampleIndices(10, n); idx != nil {
			t.Fatalf("sampleIndices(10, %d) = %v, want nil (keep everything)", n, idx)
		}
	}
	var xs []float64
	for i := 0; i < 10; i++ {
		xs = append(xs, float64(i))
	}
	cdf := stats.CDF(xs)
	if one := SampledCDFTable("t", "x", cdf, 1); len(one.Rows) != 1 || one.Rows[0][0] != "9" {
		t.Fatalf("n=1 rows = %v", one.Rows)
	}
	if all := SampledCDFTable("t", "x", cdf, 0); len(all.Rows) != 10 {
		t.Fatalf("n=0 rows = %d", len(all.Rows))
	}
}
