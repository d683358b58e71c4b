package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"saath/internal/report"
)

// Cell is one pooled (workload, variant, scheduler) capacity
// measurement, built by sweep.Summary.CapacityCells from the
// deterministic summary entries — so every number here is a pure
// function of the study, independent of execution interleaving.
type Cell struct {
	Trace     string
	Variant   string
	Scheduler string
	// Runs is the number of pooled jobs (seeds); CoFlows the pooled
	// completion count; Ports the cluster size.
	Runs    int
	CoFlows int
	Ports   int
	// Throughput is completed coflows per simulated second, averaged
	// over runs — the capacity axis of the report.
	Throughput float64
	// CCT percentiles in seconds over the pooled distribution.
	AvgCCT float64
	P50CCT float64
	P90CCT float64
	P99CCT float64
	// Makespan is the mean simulated makespan in seconds; Utilization
	// the mean egress utilization.
	Makespan    float64
	Utilization float64
}

// Workload renders the cell's workload label (WorkloadLabel).
func (c Cell) Workload() string { return WorkloadLabel(c.Trace, c.Variant) }

// WorkloadLabel is the workload column of every per-cell table: the
// trace, then the variant when the cell has one.
func WorkloadLabel(trace, variant string) string {
	if variant == "" {
		return trace
	}
	return trace + " " + variant
}

// CapacityTable renders the per-cell throughput/latency table — the
// raw material of the capacity report.
func CapacityTable(title string, cells []Cell) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"workload", "scheduler", "ports", "runs", "coflows", "coflows/s", "avg cct (s)", "p99 cct (s)", "egress util"},
	}
	for _, c := range cells {
		t.AddRow(c.Workload(), c.Scheduler, c.Ports, c.Runs, c.CoFlows,
			fmt.Sprintf("%.2f", c.Throughput),
			fmt.Sprintf("%.3f", c.AvgCCT),
			fmt.Sprintf("%.3f", c.P99CCT),
			fmt.Sprintf("%.2f", c.Utilization))
	}
	return t
}

// AxisValue extracts a numeric sweep coordinate from a cell's variant
// name: the first comma-separated "key=value" pair with a numeric value
// prefix ("A=2", "deg=12,hot=2", "delta=8ms"). Reported ok=false when
// no numeric axis exists ("policy=lcof", no variant).
func AxisValue(variant string) (float64, bool) {
	for _, pair := range strings.Split(variant, ",") {
		_, val, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		if v, ok := leadingFloat(val); ok {
			return v, true
		}
	}
	return 0, false
}

// leadingFloat parses the longest numeric prefix of s ("8ms" → 8,
// "0.5" → 0.5, "-2x" → -2).
func leadingFloat(s string) (float64, bool) {
	end := 0
	seenDigit, seenDot := false, false
	for end < len(s) {
		switch ch := s[end]; {
		case ch >= '0' && ch <= '9':
			seenDigit = true
		case ch == '.' && !seenDot:
			seenDot = true
		case (ch == '-' || ch == '+') && end == 0:
		default:
			goto done
		}
		end++
	}
done:
	if !seenDigit {
		return 0, false
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	return v, err == nil
}

// SaturationSeries is one scheduler's load curve: the cells sharing a
// scheduler and a workload family, ordered by ascending load axis,
// with the detected knee.
type SaturationSeries struct {
	// Workload labels the series' fixed part (the trace when the axis
	// comes from variants, the variant — possibly empty — when the axis
	// comes from trace names).
	Workload  string
	Scheduler string
	Ports     int
	// Loads is the ascending axis; P99s and Throughputs align with it.
	Loads       []float64
	P99s        []float64
	Throughputs []float64
	Labels      []string
	Knee        Knee
}

// Sustainable returns the series' sustainable throughput in coflows/s:
// the measured throughput at the last pre-knee point, or the maximum
// observed when no knee was detected.
func (s *SaturationSeries) Sustainable() float64 {
	if s.Knee.Detected && s.Knee.Index > 0 {
		return s.Throughputs[s.Knee.Index-1]
	}
	var max float64
	for _, v := range s.Throughputs {
		if v > max {
			max = v
		}
	}
	return max
}

// SaturationSeriesOf groups cells into per-scheduler load curves and
// runs knee detection on each (P99 CCT vs load axis). Cells without a
// numeric axis are skipped. Series order follows first appearance in
// cells, which is grid order — deterministic.
func SaturationSeriesOf(cells []Cell, tol float64) []SaturationSeries {
	type point struct {
		load, p99, thru float64
		label           string
		ports           int
	}
	type key struct{ workload, scheduler string }
	type group struct {
		key
		points []point
	}
	var order []*group
	index := make(map[key]*group)
	for _, c := range cells {
		axis, ok := AxisValue(c.Variant)
		if !ok {
			continue
		}
		// The variant carries the axis; the trace is the series' label.
		k := key{c.Trace, c.Scheduler}
		g, seen := index[k]
		if !seen {
			g = &group{key: k}
			index[k] = g
			order = append(order, g)
		}
		g.points = append(g.points, point{load: axis, p99: c.P99CCT, thru: c.Throughput, label: c.Workload(), ports: c.Ports})
	}
	out := make([]SaturationSeries, 0, len(order))
	for _, g := range order {
		sort.SliceStable(g.points, func(i, j int) bool { return g.points[i].load < g.points[j].load })
		s := SaturationSeries{Workload: g.workload, Scheduler: g.scheduler}
		for _, p := range g.points {
			s.Loads = append(s.Loads, p.load)
			s.P99s = append(s.P99s, p.p99)
			s.Throughputs = append(s.Throughputs, p.thru)
			s.Labels = append(s.Labels, p.label)
			if p.ports > s.Ports {
				s.Ports = p.ports
			}
		}
		s.Knee = DetectKnee(s.Loads, s.P99s, tol)
		out = append(out, s)
	}
	return out
}

// SaturationTable renders one row per series: the knee coordinate and
// the sustainable coflows/s at the series' cluster size — the
// production-facing capacity answer.
func SaturationTable(title string, series []SaturationSeries) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"workload", "scheduler", "ports", "points", "knee", "sustainable coflows/s", "p99 pre-knee (s)", "p99 post-knee (s)"},
	}
	for i := range series {
		s := &series[i]
		workload := s.Workload
		if workload == "" {
			workload = "(default)"
		}
		knee, pre, post := "none (linear)", "-", "-"
		if s.Knee.Detected {
			knee = fmt.Sprintf("load %.4g → %.4g", s.Knee.Load, s.Loads[s.Knee.Index])
			pre = fmt.Sprintf("%.3f", s.P99s[s.Knee.Index-1])
			post = fmt.Sprintf("%.3f", s.Knee.Actual)
		}
		t.AddRow(workload, s.Scheduler, s.Ports, len(s.Loads), knee,
			fmt.Sprintf("%.2f", s.Sustainable()), pre, post)
	}
	return t
}

// saturationPointsTable details every series point with its linear
// verdict, so the report shows where each curve bends.
func saturationPointsTable(title string, series []SaturationSeries) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"workload", "scheduler", "load", "coflows/s", "p99 cct (s)", "regime"},
	}
	for i := range series {
		s := &series[i]
		for j := range s.Loads {
			regime := "linear"
			if s.Knee.Detected && j >= s.Knee.Index {
				regime = "saturated"
				if j == s.Knee.Index {
					regime = fmt.Sprintf("knee (%.3fs vs %.3fs predicted)", s.Knee.Actual, s.Knee.Predicted)
				}
			}
			t.AddRow(s.Labels[j], s.Scheduler,
				fmt.Sprintf("%.4g", s.Loads[j]),
				fmt.Sprintf("%.2f", s.Throughputs[j]),
				fmt.Sprintf("%.3f", s.P99s[j]),
				regime)
		}
	}
	return t
}

// CapacityReport renders the one-command capacity report: the per-cell
// capacity table, the per-series saturation/knee table, and — when any
// series has enough points — the per-point detail. tol <= 0 uses
// DefaultKneeTolerance.
func CapacityReport(title string, cells []Cell, tol float64) []*report.Table {
	out := []*report.Table{CapacityTable(title+" — throughput/latency per cell", cells)}
	series := SaturationSeriesOf(cells, tol)
	sat := SaturationTable(title+" — saturation knee & sustainable load", series)
	if len(series) == 0 {
		sat.AddRow("(no numeric load axis in this study — run a rate/degree sweep, e.g. -study capacity)",
			"-", "-", "-", "-", "-", "-", "-")
	}
	out = append(out, sat)
	if len(series) > 0 {
		out = append(out, saturationPointsTable(title+" — load curve detail", series))
	}
	return out
}
