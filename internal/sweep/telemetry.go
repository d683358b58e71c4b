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

// pool folds src into the cell's pooled dump *dst: a clone of the
// first, merged into after, so no entry's own dump is written to. A
// nil src leaves *dst as it is.
func pool[D interface {
	comparable
	Clone() D
	Merge(D)
}](dst *D, src D) {
	var none D
	switch {
	case src == none:
	case *dst == none:
		*dst = src.Clone()
	default:
		(*dst).Merge(src)
	}
}

// TelemetryTable condenses per-job telemetry into one row per (trace,
// variant, scheduler) cell with seeds pooled: sampled intervals, mean
// and peak per-port queue occupancy (egress and ingress), the mean
// head-of-line-blocked CoFlow count, and contention (k_c) median/P90
// from the pooled histogram — the saath-sim -metrics terminal view.
func (s *Summary) TelemetryTable(title string) *report.Table {
	t := &report.Table{
		Title: title,
		Headers: []string{"workload", "scheduler", "runs", "intervals",
			"egress q mean/peak", "ingress q mean/peak", "blocked mean", "k_c p50", "k_c p90"},
	}
	for _, g := range s.groups(func(e *Entry) bool { return e.Telemetry != nil }) {
		var sampled int64
		var egPeak, inPeak float64                   // max over jobs of peak occupancy
		var egMeanSum, inMeanSum, blockedSum float64 // sums over jobs of whole-run means
		var contention *telemetry.HistogramDump
		for _, e := range g.entries {
			tm := e.Telemetry
			sampled += tm.Sampled
			if sr := tm.FindSeries(telemetry.SeriesEgressQueueMax); sr != nil && sr.Max > egPeak {
				egPeak = sr.Max
			}
			if sr := tm.FindSeries(telemetry.SeriesIngressQueueMax); sr != nil && sr.Max > inPeak {
				inPeak = sr.Max
			}
			if sr := tm.FindSeries(telemetry.SeriesEgressQueueMean); sr != nil {
				egMeanSum += sr.Mean
			}
			if sr := tm.FindSeries(telemetry.SeriesIngressQueueMean); sr != nil {
				inMeanSum += sr.Mean
			}
			if sr := tm.FindSeries(telemetry.SeriesBlockedCoFlows); sr != nil {
				blockedSum += sr.Mean
			}
			pool(&contention, tm.FindHistogram(telemetry.HistContention))
		}
		p50, p90 := "-", "-"
		if contention != nil && contention.Count > 0 {
			p50 = fmt.Sprintf("%.0f", contention.Quantile(0.50))
			p90 = fmt.Sprintf("%.0f", contention.Quantile(0.90))
		}
		n := float64(len(g.entries))
		t.AddRow(g.label(), g.scheduler, len(g.entries), sampled,
			fmt.Sprintf("%.1f/%.0f", egMeanSum/n, egPeak),
			fmt.Sprintf("%.1f/%.0f", inMeanSum/n, inPeak),
			fmt.Sprintf("%.2f", blockedSum/n),
			p50, p90)
	}
	return t
}

// QueueTransitionTable condenses the Fig. 4-style queue-transition
// telemetry into one row per (trace, variant, scheduler) cell with
// seeds pooled: total promotions/demotions, the demotion rate per
// thousand sampled intervals, and the pooled queue-level distribution
// (median / P90 / max). Cells whose jobs ran without
// Spec.QueueTransitions are skipped.
func (s *Summary) QueueTransitionTable(title string) *report.Table {
	t := &report.Table{
		Title: title,
		Headers: []string{"workload", "scheduler", "runs", "intervals",
			"promotions", "demotions", "demote/1k ivs", "level p50", "level p90", "level max"},
	}
	collected := func(e *Entry) bool {
		return e.Telemetry != nil && e.Telemetry.FindSeries(telemetry.SeriesQueueDemotions) != nil
	}
	for _, g := range s.groups(collected) {
		var sampled int64
		var promotions, demotions float64 // exact per-job totals (series mean × count)
		var level *telemetry.HistogramDump
		for _, e := range g.entries {
			tm := e.Telemetry
			sampled += tm.Sampled
			demos := tm.FindSeries(telemetry.SeriesQueueDemotions)
			demotions += demos.Mean * float64(demos.Count)
			if promos := tm.FindSeries(telemetry.SeriesQueuePromotions); promos != nil {
				promotions += promos.Mean * float64(promos.Count)
			}
			pool(&level, tm.FindHistogram(telemetry.HistQueueLevel))
		}
		p50, p90, max := "-", "-", "-"
		if level != nil && level.Count > 0 {
			p50 = fmt.Sprintf("%.0f", level.Quantile(0.50))
			p90 = fmt.Sprintf("%.0f", level.Quantile(0.90))
			max = fmt.Sprintf("%.0f", level.Max)
		}
		rate := "-"
		if sampled > 0 {
			rate = fmt.Sprintf("%.1f", demotions/float64(sampled)*1000)
		}
		t.AddRow(g.label(), g.scheduler, len(g.entries), sampled,
			fmt.Sprintf("%.0f", promotions), fmt.Sprintf("%.0f", demotions),
			rate, p50, p90, max)
	}
	return t
}

// PortHeatmapTable condenses the per-port occupancy heatmaps into one
// row per (cell, side, port): the hottest maxPorts egress and ingress
// ports of every (trace, variant, scheduler) cell with seeds pooled,
// each with its time-weighted mean/max occupancy and the fraction of
// sampled intervals spent in each occupancy bucket. Cells whose jobs
// ran without Spec.PortHeatmap are skipped.
func (s *Summary) PortHeatmapTable(title string, maxPorts int) *report.Table {
	collected := func(e *Entry) bool {
		return e.Telemetry != nil && (e.Telemetry.FindHeatmap(telemetry.HeatmapEgressOccupancy) != nil ||
			e.Telemetry.FindHeatmap(telemetry.HeatmapIngressOccupancy) != nil)
	}
	var bounds []float64
	var rows []report.HeatmapRow
	for _, g := range s.groups(collected) {
		var egress, ingress *telemetry.HeatmapDump
		for _, e := range g.entries {
			pool(&egress, e.Telemetry.FindHeatmap(telemetry.HeatmapEgressOccupancy))
			pool(&ingress, e.Telemetry.FindHeatmap(telemetry.HeatmapIngressOccupancy))
		}
		for _, side := range []struct {
			name string
			hm   *telemetry.HeatmapDump
		}{{"egress", egress}, {"ingress", ingress}} {
			if side.hm == nil {
				continue
			}
			if bounds == nil {
				bounds = side.hm.Bounds
			}
			prefix := fmt.Sprintf("%s %s %s", g.label(), g.scheduler, side.name)
			rows = append(rows, telemetry.HeatmapRows(side.hm, maxPorts, func(p *telemetry.HeatmapPortDump) string {
				return fmt.Sprintf("%s p%d", prefix, p.Port)
			})...)
		}
	}
	return report.HeatmapTable(title, "workload scheduler side port", bounds, rows)
}
