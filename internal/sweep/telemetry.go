package sweep

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"saath/internal/report"
	"saath/internal/telemetry"
)

// JobTelemetry pairs a job's grid identity with its exported metrics,
// the unit of the metrics JSON export.
type JobTelemetry struct {
	Trace     string             `json:"trace"`
	Variant   string             `json:"variant,omitempty"`
	Scheduler string             `json:"scheduler"`
	Seed      int64              `json:"seed"`
	Metrics   *telemetry.Metrics `json:"metrics"`
}

// Telemetry returns every job's metrics in grid order, skipping jobs
// that errored or ran without telemetry.
func (s *Summary) Telemetry() []JobTelemetry {
	var out []JobTelemetry
	for _, e := range s.sorted() {
		if e.Telemetry == nil {
			continue
		}
		m := e.Metrics
		out = append(out, JobTelemetry{
			Trace:     m.Trace,
			Variant:   m.Variant,
			Scheduler: m.Scheduler,
			Seed:      m.Seed,
			Metrics:   e.Telemetry,
		})
	}
	return out
}

// WriteMetricsJSON exports every job's telemetry as {"jobs": [...]} in
// grid order: the bytes encoding/json gives for them, streamed a job at
// a time (writeJobs). Like WriteJSON, the output is a pure function of
// the grid — byte-identical at any parallelism.
func (s *Summary) WriteMetricsJSON(w io.Writer) error {
	return writeJobs(w, s.Telemetry())
}

// WriteMetricsCSV exports every job's telemetry as flat CSV rows —
// one row per series point (kind "series", x = simulated seconds) and
// per histogram bucket (kind "hist", x = bucket upper bound, "+Inf"
// for the overflow bucket) — for plotting without JSON tooling.
func (s *Summary) WriteMetricsCSV(w io.Writer) error {
	// Stream through a buffered writer: large sweeps export millions of
	// rows and must not materialize the whole file in memory.
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("trace,variant,scheduler,seed,kind,name,x,y\n"); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, jt := range s.Telemetry() {
		prefix := fmt.Sprintf("%s,%s,%s,%d", csvCell(jt.Trace), csvCell(jt.Variant), csvCell(jt.Scheduler), jt.Seed)
		for _, sr := range jt.Metrics.Series {
			for _, p := range sr.Points {
				fmt.Fprintf(bw, "%s,series,%s,%s,%s\n", prefix, csvCell(sr.Name), g(p.T), g(p.V))
			}
		}
		for _, h := range jt.Metrics.Histograms {
			for _, bk := range h.Buckets {
				fmt.Fprintf(bw, "%s,hist,%s,%s,%d\n", prefix, csvCell(h.Name), g(bk.LE), bk.Count)
			}
			if h.Overflow > 0 {
				fmt.Fprintf(bw, "%s,hist,%s,+Inf,%d\n", prefix, csvCell(h.Name), h.Overflow)
			}
		}
		// Heatmaps flatten to one row per (port, bucket): the name
		// carries the bucket's upper bound, x is the port, y the count.
		// Buckets are disjoint intervals (prev, b], not cumulative —
		// hence "b=", not Prometheus's cumulative "le=".
		for _, hm := range jt.Metrics.Heatmaps {
			for _, p := range hm.Ports {
				for bi, b := range hm.Bounds {
					if bi < len(p.Counts) && p.Counts[bi] > 0 {
						fmt.Fprintf(bw, "%s,heatmap,%s,%d,%d\n", prefix,
							csvCell(fmt.Sprintf("%s/b=%s", hm.Name, g(b))), p.Port, p.Counts[bi])
					}
				}
				if p.Overflow > 0 {
					fmt.Fprintf(bw, "%s,heatmap,%s,%d,%d\n", prefix,
						csvCell(hm.Name+"/b=+Inf"), p.Port, p.Overflow)
				}
			}
		}
	}
	return bw.Flush()
}

func csvCell(cell string) string {
	if strings.ContainsAny(cell, ",\"\n") {
		return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
	}
	return cell
}

// telemetryCell pools one (trace, variant, scheduler) group's metrics
// across seeds for the summary table.
type telemetryCell struct {
	cell       cell
	n          int
	sampled    int64
	egPeak     float64 // max over jobs of peak egress occupancy
	inPeak     float64
	egMeanSum  float64 // sum over jobs of whole-run mean occupancy
	inMeanSum  float64
	blockedSum float64 // sum over jobs of mean blocked-coflow count
	contention *telemetry.HistogramDump
}

// TelemetryTable condenses per-job telemetry into one row per (trace,
// variant, scheduler) cell with seeds pooled: sampled intervals, mean
// and peak per-port queue occupancy (egress and ingress), the mean
// head-of-line-blocked CoFlow count, and contention (k_c) median/P90
// from the pooled histogram — the saath-sim -metrics terminal view.
func (s *Summary) TelemetryTable(title string) *report.Table {
	var order []*telemetryCell
	index := make(map[string]*telemetryCell)
	for _, e := range s.sorted() {
		if e.Telemetry == nil {
			continue
		}
		m := e.Metrics
		key := m.Trace + "|" + m.Variant + "|" + m.Scheduler
		tc, ok := index[key]
		if !ok {
			tc = &telemetryCell{cell: cell{trace: m.Trace, variant: m.Variant, scheduler: m.Scheduler}}
			index[key] = tc
			order = append(order, tc)
		}
		tc.n++
		tc.sampled += e.Telemetry.Sampled
		if sr := e.Telemetry.FindSeries(telemetry.SeriesEgressQueueMax); sr != nil && sr.Max > tc.egPeak {
			tc.egPeak = sr.Max
		}
		if sr := e.Telemetry.FindSeries(telemetry.SeriesIngressQueueMax); sr != nil && sr.Max > tc.inPeak {
			tc.inPeak = sr.Max
		}
		if sr := e.Telemetry.FindSeries(telemetry.SeriesEgressQueueMean); sr != nil {
			tc.egMeanSum += sr.Mean
		}
		if sr := e.Telemetry.FindSeries(telemetry.SeriesIngressQueueMean); sr != nil {
			tc.inMeanSum += sr.Mean
		}
		if sr := e.Telemetry.FindSeries(telemetry.SeriesBlockedCoFlows); sr != nil {
			tc.blockedSum += sr.Mean
		}
		if h := e.Telemetry.FindHistogram(telemetry.HistContention); h != nil {
			if tc.contention == nil {
				tc.contention = h.Clone()
			} else {
				tc.contention.Merge(h)
			}
		}
	}
	t := &report.Table{
		Title: title,
		Headers: []string{"workload", "scheduler", "runs", "intervals",
			"egress q mean/peak", "ingress q mean/peak", "blocked mean", "k_c p50", "k_c p90"},
	}
	for _, tc := range order {
		p50, p90 := "-", "-"
		if tc.contention != nil && tc.contention.Count > 0 {
			p50 = fmt.Sprintf("%.0f", tc.contention.Quantile(0.50))
			p90 = fmt.Sprintf("%.0f", tc.contention.Quantile(0.90))
		}
		n := float64(tc.n)
		t.AddRow(tc.cell.label(), tc.cell.scheduler, tc.n, tc.sampled,
			fmt.Sprintf("%.1f/%.0f", tc.egMeanSum/n, tc.egPeak),
			fmt.Sprintf("%.1f/%.0f", tc.inMeanSum/n, tc.inPeak),
			fmt.Sprintf("%.2f", tc.blockedSum/n),
			p50, p90)
	}
	return t
}

// transitionCell pools one (trace, variant, scheduler) group's
// queue-transition telemetry across seeds.
type transitionCell struct {
	cell         cell
	n            int
	sampled      int64
	promotions   float64 // exact per-job totals (series mean × count)
	demotions    float64
	observations int64 // (coflow, interval) placements
	level        *telemetry.HistogramDump
}

// QueueTransitionTable condenses the Fig. 4-style queue-transition
// telemetry into one row per (trace, variant, scheduler) cell with
// seeds pooled: total promotions/demotions, the demotion rate per
// thousand sampled intervals, and the pooled queue-level distribution
// (median / P90 / max). Cells whose jobs ran without
// Spec.QueueTransitions are skipped.
func (s *Summary) QueueTransitionTable(title string) *report.Table {
	var order []*transitionCell
	index := make(map[string]*transitionCell)
	for _, e := range s.sorted() {
		if e.Telemetry == nil {
			continue
		}
		demos := e.Telemetry.FindSeries(telemetry.SeriesQueueDemotions)
		if demos == nil {
			continue // transitions not collected for this job
		}
		m := e.Metrics
		key := m.Trace + "|" + m.Variant + "|" + m.Scheduler
		tc, ok := index[key]
		if !ok {
			tc = &transitionCell{cell: cell{trace: m.Trace, variant: m.Variant, scheduler: m.Scheduler}}
			index[key] = tc
			order = append(order, tc)
		}
		tc.n++
		tc.sampled += e.Telemetry.Sampled
		tc.demotions += demos.Mean * float64(demos.Count)
		if promos := e.Telemetry.FindSeries(telemetry.SeriesQueuePromotions); promos != nil {
			tc.promotions += promos.Mean * float64(promos.Count)
		}
		if h := e.Telemetry.FindHistogram(telemetry.HistQueueLevel); h != nil {
			tc.observations += h.Count
			if tc.level == nil {
				tc.level = h.Clone()
			} else {
				tc.level.Merge(h)
			}
		}
	}
	t := &report.Table{
		Title: title,
		Headers: []string{"workload", "scheduler", "runs", "intervals",
			"promotions", "demotions", "demote/1k ivs", "level p50", "level p90", "level max"},
	}
	for _, tc := range order {
		p50, p90, max := "-", "-", "-"
		if tc.level != nil && tc.level.Count > 0 {
			p50 = fmt.Sprintf("%.0f", tc.level.Quantile(0.50))
			p90 = fmt.Sprintf("%.0f", tc.level.Quantile(0.90))
			max = fmt.Sprintf("%.0f", tc.level.Max)
		}
		rate := "-"
		if tc.sampled > 0 {
			rate = fmt.Sprintf("%.1f", tc.demotions/float64(tc.sampled)*1000)
		}
		t.AddRow(tc.cell.label(), tc.cell.scheduler, tc.n, tc.sampled,
			fmt.Sprintf("%.0f", tc.promotions), fmt.Sprintf("%.0f", tc.demotions),
			rate, p50, p90, max)
	}
	return t
}

// heatmapCell pools one (trace, variant, scheduler) group's heatmaps.
type heatmapCell struct {
	cell   cell
	egress *telemetry.HeatmapDump
	ingres *telemetry.HeatmapDump
}

// PortHeatmapTable condenses the per-port occupancy heatmaps into one
// row per (cell, side, port): the hottest maxPorts egress and ingress
// ports of every (trace, variant, scheduler) cell with seeds pooled,
// each with its time-weighted mean/max occupancy and the fraction of
// sampled intervals spent in each occupancy bucket. Cells whose jobs
// ran without Spec.PortHeatmap are skipped.
func (s *Summary) PortHeatmapTable(title string, maxPorts int) *report.Table {
	var order []*heatmapCell
	index := make(map[string]*heatmapCell)
	merge := func(dst **telemetry.HeatmapDump, src *telemetry.HeatmapDump) {
		if src == nil {
			return
		}
		if *dst == nil {
			*dst = src.Clone()
		} else {
			(*dst).Merge(src)
		}
	}
	for _, e := range s.sorted() {
		if e.Telemetry == nil {
			continue
		}
		eg := e.Telemetry.FindHeatmap(telemetry.HeatmapEgressOccupancy)
		in := e.Telemetry.FindHeatmap(telemetry.HeatmapIngressOccupancy)
		if eg == nil && in == nil {
			continue
		}
		m := e.Metrics
		key := m.Trace + "|" + m.Variant + "|" + m.Scheduler
		hc, ok := index[key]
		if !ok {
			hc = &heatmapCell{cell: cell{trace: m.Trace, variant: m.Variant, scheduler: m.Scheduler}}
			index[key] = hc
			order = append(order, hc)
		}
		merge(&hc.egress, eg)
		merge(&hc.ingres, in)
	}
	var bounds []float64
	var rows []report.HeatmapRow
	for _, hc := range order {
		for _, side := range []struct {
			name string
			hm   *telemetry.HeatmapDump
		}{{"egress", hc.egress}, {"ingress", hc.ingres}} {
			if side.hm == nil {
				continue
			}
			if bounds == nil {
				bounds = side.hm.Bounds
			}
			prefix := fmt.Sprintf("%s %s %s", hc.cell.label(), hc.cell.scheduler, side.name)
			rows = append(rows, telemetry.HeatmapRows(side.hm, maxPorts, func(p *telemetry.HeatmapPortDump) string {
				return fmt.Sprintf("%s p%d", prefix, p.Port)
			})...)
		}
	}
	t := report.HeatmapTable(title, "workload scheduler side port", bounds, rows)
	return t
}
