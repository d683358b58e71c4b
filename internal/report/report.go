// Package report renders experiment output as fixed-width ASCII tables
// for terminal inspection, matching the rows and series of the paper's
// tables and figures.
package report

import (
	"fmt"
	"io"
	"strings"

	"saath/internal/stats"
)

// Table is a simple fixed-width ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CDFTable renders an empirical CDF as a two-column table, the shape
// of the paper's CDF figures.
func CDFTable(title, xLabel string, cdf []stats.CDFPoint) *Table {
	t := &Table{Title: title, Headers: []string{xLabel, "CDF"}}
	for _, p := range cdf {
		t.AddRow(fmt.Sprintf("%.4g", p.X), fmt.Sprintf("%.4f", p.F))
	}
	return t
}

// sampleIndices returns at most n indices over [0, length), evenly
// spaced and always ending on the last element. A nil result means
// "keep everything" (n out of range or nothing to drop).
func sampleIndices(length, n int) []int {
	if n <= 0 || length <= n {
		return nil
	}
	if n == 1 {
		return []int{length - 1}
	}
	idx := make([]int, n)
	step := float64(length-1) / float64(n-1)
	for i := 0; i < n; i++ {
		idx[i] = int(float64(i)*step + 0.5)
	}
	idx[n-1] = length - 1
	return idx
}

// SampledCDFTable downsamples a CDF to at most n points (always
// keeping the last), keeping figure output readable.
func SampledCDFTable(title, xLabel string, cdf []stats.CDFPoint, n int) *Table {
	idx := sampleIndices(len(cdf), n)
	if idx == nil {
		return CDFTable(title, xLabel, cdf)
	}
	sampled := make([]stats.CDFPoint, len(idx))
	for i, j := range idx {
		sampled[i] = cdf[j]
	}
	return CDFTable(title, xLabel, sampled)
}

// HeatmapRow is one labeled row of a heatmap table: occupancy-bucket
// counts (per ascending upper bound, plus overflow above the last
// bound) and exact scalar statistics.
type HeatmapRow struct {
	Label    string
	Counts   []int64
	Overflow int64
	Mean     float64
	Max      float64
}

// HeatmapTable renders a label × bucket matrix as per-row fractions —
// the terminal rendering of the telemetry per-port occupancy heatmaps
// (Fig. 4-style "where the queues build"). Buckets are disjoint
// intervals, NOT cumulative: each cell is the fraction of the row's
// observations that fell in (prevBound, bound] — the first bound
// (typically 0) reads as idle time, and a row's cells sum to one.
func HeatmapTable(title, rowLabel string, bounds []float64, rows []HeatmapRow) *Table {
	headers := []string{rowLabel, "mean", "max"}
	for i, b := range bounds {
		if i == 0 {
			headers = append(headers, fmt.Sprintf("=%.4g", b))
		} else {
			headers = append(headers, fmt.Sprintf("(%.4g,%.4g]", bounds[i-1], b))
		}
	}
	if len(bounds) > 0 {
		headers = append(headers, fmt.Sprintf(">%.4g", bounds[len(bounds)-1]))
	}
	t := &Table{Title: title, Headers: headers}
	for _, r := range rows {
		var total int64
		for _, c := range r.Counts {
			total += c
		}
		total += r.Overflow
		frac := func(c int64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", float64(c)/float64(total))
		}
		cells := []any{r.Label, fmt.Sprintf("%.2f", r.Mean), fmt.Sprintf("%.0f", r.Max)}
		for _, c := range r.Counts {
			cells = append(cells, frac(c))
		}
		if len(bounds) > 0 {
			cells = append(cells, frac(r.Overflow))
		}
		t.AddRow(cells...)
	}
	return t
}

// SpeedupBar renders the paper's bar-with-error-bars presentation:
// one row per series with P10/median/P90.
func SpeedupBar(title string, series map[string]stats.SpeedupSummary, order []string) *Table {
	t := &Table{Title: title, Headers: []string{"series", "p10", "median", "p90", "mean", "n"}}
	for _, name := range order {
		s, ok := series[name]
		if !ok {
			continue
		}
		t.AddRow(name,
			fmt.Sprintf("%.2f", s.P10),
			fmt.Sprintf("%.2f", s.Median),
			fmt.Sprintf("%.2f", s.P90),
			fmt.Sprintf("%.2f", s.Mean),
			s.N)
	}
	return t
}
