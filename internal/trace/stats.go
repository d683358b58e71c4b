package trace

import (
	"saath/internal/coflow"
	"saath/internal/stats"
)

// FlowLengthClass partitions CoFlows by flow-length dispersion, the
// split used throughout §2.3 and Fig. 13.
type FlowLengthClass int

const (
	// SingleFlow CoFlows have exactly one flow.
	SingleFlow FlowLengthClass = iota
	// EqualLength CoFlows have >1 flows of (near-)equal size.
	EqualLength
	// UnequalLength CoFlows have >1 flows of differing sizes.
	UnequalLength
)

// equalTolerance is the relative spread under which flow lengths count
// as equal; the FB trace stores integer megabytes, so division by the
// mapper count introduces sub-percent rounding we must ignore.
const equalTolerance = 0.01

// Classify buckets a spec by flow-length dispersion.
func Classify(s *coflow.Spec) FlowLengthClass {
	if len(s.Flows) <= 1 {
		return SingleFlow
	}
	return ClassOf(len(s.Flows), NormalizedSizeStdDev(s))
}

// ClassOf buckets a coflow of width flows whose normalized flow-size
// stddev is sizeDev, as Classify does its spec.
func ClassOf(width int, sizeDev float64) FlowLengthClass {
	switch {
	case width <= 1:
		return SingleFlow
	case sizeDev <= equalTolerance:
		return EqualLength
	}
	return UnequalLength
}

// NormalizedSizeStdDev returns the standard deviation of the spec's
// flow sizes divided by their mean (Fig. 2(b)). Zero-mean specs return 0.
func NormalizedSizeStdDev(s *coflow.Spec) float64 {
	sizes := make([]float64, len(s.Flows))
	for i, f := range s.Flows {
		sizes[i] = float64(f.Size)
	}
	return stats.NormStdDev(sizes)
}

// Summary aggregates the trace-shape statistics reported in §2.3.
type Summary struct {
	NumPorts      int
	NumCoFlows    int
	TotalBytes    coflow.Bytes
	Widths        []int     // per-coflow flow counts, trace order
	SizeDevs      []float64 // per-coflow normalized flow-size stddev
	SingleFrac    float64   // fraction with one flow
	EqualFrac     float64   // fraction multi-flow with equal lengths
	UnequalFrac   float64   // fraction multi-flow with unequal lengths
	MaxWidth      int
	MeanWidth     float64
	ArrivalSpan   coflow.Time
	MeanInterGap  coflow.Time
	PortBusyness  float64 // average number of CoFlows touching each port
	WidestCoFlow  coflow.CoFlowID
	LargestCoFlow coflow.CoFlowID
}

// Summarize computes a Summary for t.
func Summarize(t *Trace) Summary {
	s := Summary{NumPorts: t.NumPorts, NumCoFlows: len(t.Specs), TotalBytes: t.TotalBytes()}
	if len(t.Specs) == 0 {
		return s
	}
	var single, equal, unequal int
	var widthSum int
	var largest coflow.Bytes
	portTouch := make(map[coflow.PortID]int)
	var first, last coflow.Time
	first = t.Specs[0].Arrival
	for _, spec := range t.Specs {
		w := spec.Width()
		s.Widths = append(s.Widths, w)
		s.SizeDevs = append(s.SizeDevs, NormalizedSizeStdDev(spec))
		widthSum += w
		if w > s.MaxWidth {
			s.MaxWidth = w
			s.WidestCoFlow = spec.ID
		}
		if total := spec.TotalSize(); total > largest {
			largest = total
			s.LargestCoFlow = spec.ID
		}
		switch Classify(spec) {
		case SingleFlow:
			single++
		case EqualLength:
			equal++
		case UnequalLength:
			unequal++
		}
		touched := make(map[coflow.PortID]bool)
		for _, f := range spec.Flows {
			touched[f.Src] = true
			touched[f.Dst] = true
		}
		for p := range touched {
			portTouch[p]++
		}
		if spec.Arrival < first {
			first = spec.Arrival
		}
		if spec.Arrival > last {
			last = spec.Arrival
		}
	}
	n := float64(len(t.Specs))
	s.SingleFrac = float64(single) / n
	s.EqualFrac = float64(equal) / n
	s.UnequalFrac = float64(unequal) / n
	s.MeanWidth = float64(widthSum) / n
	s.ArrivalSpan = last - first
	if len(t.Specs) > 1 {
		s.MeanInterGap = s.ArrivalSpan / coflow.Time(len(t.Specs)-1)
	}
	var busySum int
	for _, c := range portTouch {
		busySum += c
	}
	if t.NumPorts > 0 {
		s.PortBusyness = float64(busySum) / float64(t.NumPorts)
	}
	return s
}
