package telemetry

import (
	"math"
	"sort"

	"saath/internal/report"
)

// SeriesDump is the exported form of one metric stream: merged
// reservoir + tail points plus exact whole-run scalar statistics.
type SeriesDump struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit,omitempty"`
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	Last   float64 `json:"last"`
	Points []Point `json:"points"`
}

// Bucket is one histogram bucket: the count of observations with
// value <= LE (non-cumulative).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramDump is the exported form of one histogram. Overflow counts
// observations above the last bucket's bound (JSON has no +Inf).
type HistogramDump struct {
	Name     string   `json:"name"`
	Count    int64    `json:"count"`
	Sum      float64  `json:"sum"`
	Max      float64  `json:"max"`
	Buckets  []Bucket `json:"buckets"`
	Overflow int64    `json:"overflow,omitempty"`
}

// Quantile estimates the q-quantile as the upper bound of the bucket
// where the cumulative count crosses q (overflow: the exact maximum).
func (h *HistogramDump) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(h.Count)))
	if need <= 0 {
		need = 1
	}
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= need {
			return b.LE
		}
	}
	return h.Max
}

// Merge adds other's buckets into h. Bucket layouts must match (both
// built by the Suite); mismatched layouts merge only the scalar fields.
func (h *HistogramDump) Merge(other *HistogramDump) {
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Overflow += other.Overflow
	if len(h.Buckets) == len(other.Buckets) {
		for i := range h.Buckets {
			h.Buckets[i].Count += other.Buckets[i].Count
		}
	}
}

// Clone returns a deep copy (Merge mutates; callers pooling across
// jobs start from a clone).
func (h *HistogramDump) Clone() *HistogramDump {
	cp := *h
	cp.Buckets = append([]Bucket(nil), h.Buckets...)
	return &cp
}

// HeatmapPortDump is one port's row of a heatmap: occupancy-bucket
// counts plus exact integer scalar statistics. Everything is integral,
// so shard dumps round-trip through JSON without loss.
type HeatmapPortDump struct {
	Port     int     `json:"port"`
	Counts   []int64 `json:"counts"`
	Overflow int64   `json:"overflow,omitempty"`
	Sum      int64   `json:"sum"`
	Max      int64   `json:"max"`
}

// Mean returns the port's time-weighted mean occupancy over intervals
// observations.
func (p *HeatmapPortDump) Mean(intervals int64) float64 {
	if intervals == 0 {
		return 0
	}
	return float64(p.Sum) / float64(intervals)
}

// HeatmapDump is the exported form of one per-port occupancy heatmap.
type HeatmapDump struct {
	Name      string            `json:"name"`
	Bounds    []float64         `json:"bounds"`
	Intervals int64             `json:"intervals"`
	Ports     []HeatmapPortDump `json:"ports"`
}

// Merge adds other's observations into h. Layouts must match (same
// bounds, same port count — heatmaps from the same workload cell do);
// mismatched layouts merge only the interval count.
func (h *HeatmapDump) Merge(other *HeatmapDump) {
	h.Intervals += other.Intervals
	if len(h.Ports) != len(other.Ports) || len(h.Bounds) != len(other.Bounds) {
		return
	}
	for i := range h.Ports {
		p, o := &h.Ports[i], &other.Ports[i]
		p.Overflow += o.Overflow
		p.Sum += o.Sum
		if o.Max > p.Max {
			p.Max = o.Max
		}
		if len(p.Counts) == len(o.Counts) {
			for b := range p.Counts {
				p.Counts[b] += o.Counts[b]
			}
		}
	}
}

// Clone returns a deep copy (Merge mutates).
func (h *HeatmapDump) Clone() *HeatmapDump {
	cp := *h
	cp.Bounds = append([]float64(nil), h.Bounds...)
	cp.Ports = make([]HeatmapPortDump, len(h.Ports))
	for i, p := range h.Ports {
		p.Counts = append([]int64(nil), p.Counts...)
		cp.Ports[i] = p
	}
	return &cp
}

// Metrics is one run's exported telemetry: every series and histogram
// in a stable order, fully deterministic for a given simulation.
type Metrics struct {
	// Intervals counts scheduling rounds observed; Sampled counts the
	// rounds recorded after striding.
	Intervals  int64           `json:"intervals"`
	Sampled    int64           `json:"sampled"`
	Series     []SeriesDump    `json:"series"`
	Histograms []HistogramDump `json:"histograms"`
	Heatmaps   []HeatmapDump   `json:"heatmaps,omitempty"`
}

// Metrics exports the suite's state. It may be called mid-run (the
// dump is a snapshot) or after the simulation completes.
func (s *Suite) Metrics() *Metrics {
	s.flush()
	m := &Metrics{Intervals: s.intervals, Sampled: s.sampled}
	m.Series = make([]SeriesDump, 0, len(s.order)+len(s.progress))
	var d SeriesDump
	var scratch []indexed // every series' reservoir sorts here in turn
	for _, sr := range s.order {
		d, scratch = sr.Export(scratch)
		m.Series = append(m.Series, d)
	}
	for i := range s.progress {
		d, scratch = s.progress[i].series.Export(scratch)
		m.Series = append(m.Series, d)
	}
	for _, h := range []*Histogram{s.hEgress, s.hIngress, s.hContention} {
		m.Histograms = append(m.Histograms, h.Export())
	}
	if s.qt != nil {
		m.Histograms = append(m.Histograms, s.qt.level.Export())
	}
	if s.heatEg != nil {
		m.Heatmaps = append(m.Heatmaps, s.heatEg.Export(), s.heatIn.Export())
	}
	return m
}

// FindSeries returns the named series dump, or nil.
func (m *Metrics) FindSeries(name string) *SeriesDump {
	for i := range m.Series {
		if m.Series[i].Name == name {
			return &m.Series[i]
		}
	}
	return nil
}

// FindHistogram returns the named histogram dump, or nil.
func (m *Metrics) FindHistogram(name string) *HistogramDump {
	for i := range m.Histograms {
		if m.Histograms[i].Name == name {
			return &m.Histograms[i]
		}
	}
	return nil
}

// FindHeatmap returns the named heatmap dump, or nil.
func (m *Metrics) FindHeatmap(name string) *HeatmapDump {
	for i := range m.Heatmaps {
		if m.Heatmaps[i].Name == name {
			return &m.Heatmaps[i]
		}
	}
	return nil
}

// HeatmapRows converts a heatmap dump into report rows: ports with any
// occupancy, ranked by total occupancy descending (ties by port
// ascending), truncated to maxPorts (<=0: no cap). The label callback
// names each row, letting pooled consumers prefix workload/scheduler.
func HeatmapRows(h *HeatmapDump, maxPorts int, label func(*HeatmapPortDump) string) []report.HeatmapRow {
	idx := make([]int, 0, len(h.Ports))
	for i := range h.Ports {
		if h.Ports[i].Sum > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := &h.Ports[idx[a]], &h.Ports[idx[b]]
		if pa.Sum != pb.Sum {
			return pa.Sum > pb.Sum
		}
		return pa.Port < pb.Port
	})
	if maxPorts > 0 && len(idx) > maxPorts {
		idx = idx[:maxPorts]
	}
	rows := make([]report.HeatmapRow, len(idx))
	for i, j := range idx {
		p := &h.Ports[j]
		rows[i] = report.HeatmapRow{
			Label:    label(p),
			Counts:   p.Counts,
			Overflow: p.Overflow,
			Mean:     p.Mean(h.Intervals),
			Max:      float64(p.Max),
		}
	}
	return rows
}
