// Package stats provides the statistical machinery behind the paper's
// evaluation: empirical CDFs, percentiles, per-CoFlow speedup
// distributions, normalized FCT deviation (the out-of-sync metric of
// §2.3 and Fig. 13), the size/width bins of Table 1, and the
// shuffle-fraction job-completion-time model of Fig. 16.
package stats

import (
	"fmt"
	"math"
	"sort"

	"saath/internal/coflow"
)

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. It returns NaN for empty
// input. xs is left as it is; an unsorted one is sorted in a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := xs
	if !sort.Float64sAreSorted(xs) {
		cp = append([]float64(nil), xs...)
		sort.Float64s(cp)
	}
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// NormStdDev returns stddev(xs)/mean(xs) — the normalized deviation
// used to quantify the out-of-sync problem. Zero-mean or empty input
// returns 0.
func NormStdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := Mean(xs)
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / math.Abs(mean)
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	F float64 // fraction of samples <= X
}

// CDF computes the empirical CDF of xs (sorted by X ascending).
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	out := make([]CDFPoint, 0, len(cp))
	n := float64(len(cp))
	for i, x := range cp {
		// collapse duplicates to the final (highest) fraction
		if i+1 < len(cp) && cp[i+1] == x {
			continue
		}
		out = append(out, CDFPoint{X: x, F: float64(i+1) / n})
	}
	return out
}

// CDFAt evaluates an empirical CDF at value x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	f := 0.0
	for _, p := range cdf {
		if p.X > x {
			break
		}
		f = p.F
	}
	return f
}

// Speedups computes per-CoFlow CCT ratios base/target, matched by ID:
// values > 1 mean the target scheduler is faster (the paper's
// "speedup using Saath", §6.1). CoFlows missing from either run are
// skipped.
func Speedups(base, target map[coflow.CoFlowID]coflow.Time) []float64 {
	out := make([]float64, 0, len(base))
	//saath:order-independent the collected ratios are sorted before return
	for id, b := range base {
		t, ok := target[id]
		if !ok || t <= 0 || b <= 0 {
			continue
		}
		out = append(out, float64(b)/float64(t))
	}
	sort.Float64s(out)
	return out
}

// SpeedupSummary condenses a speedup distribution the way the paper's
// bar charts do: median with P10/P90 error bars.
type SpeedupSummary struct {
	P10, Median, P90, Mean float64
	N                      int
}

// Summarize builds a SpeedupSummary.
func Summarize(speedups []float64) SpeedupSummary {
	return SpeedupSummary{
		P10:    Percentile(speedups, 10),
		Median: Percentile(speedups, 50),
		P90:    Percentile(speedups, 90),
		Mean:   Mean(speedups),
		N:      len(speedups),
	}
}

// String formats the summary as the paper quotes numbers, e.g.
// "1.53x median (P10=1.1x, P90=4.5x, n=526)".
func (s SpeedupSummary) String() string {
	return fmt.Sprintf("%.2fx median (P10=%.2fx, P90=%.2fx, n=%d)", s.Median, s.P10, s.P90, s.N)
}

// OverallSpeedupPercent is Fig. 3(b)'s metric: the improvement of the
// average CCT, in percent, of target over base.
func OverallSpeedupPercent(baseAvg, targetAvg float64) float64 {
	if baseAvg <= 0 {
		return 0
	}
	return (baseAvg - targetAvg) / baseAvg * 100
}

// Bin is a Table-1 size/width bucket.
type Bin int

// The four bins of Table 1.
const (
	Bin1 Bin = iota // size <= 100MB, width <= 10
	Bin2            // size <= 100MB, width >  10
	Bin3            // size  > 100MB, width <= 10
	Bin4            // size  > 100MB, width >  10
)

// Table-1 boundaries.
const (
	BinSizeBoundary  = 100 * coflow.MB
	BinWidthBoundary = 10
)

// AssignBin buckets a CoFlow by total size and width per Table 1.
func AssignBin(size coflow.Bytes, width int) Bin {
	small := size <= BinSizeBoundary
	narrow := width <= BinWidthBoundary
	switch {
	case small && narrow:
		return Bin1
	case small:
		return Bin2
	case narrow:
		return Bin3
	default:
		return Bin4
	}
}

// JCTModel maps CCT improvements to job completion times following the
// Fig. 16 methodology: a job spends a fraction of its total time in
// shuffle (the CoFlow) and the rest in compute, which schedulers do
// not touch. Given the baseline CCT and the shuffle fraction, the
// implied compute time is cct·(1−f)/f.
type JCTModel struct {
	ShuffleFraction float64
}

// JCT returns the modelled job completion time for a CoFlow whose
// shuffle took cct under some scheduler, with compute time derived
// from the baseline CCT.
func (m JCTModel) JCT(baseCCT, cct coflow.Time) float64 {
	f := m.ShuffleFraction
	if f <= 0 || f > 1 {
		f = 1
	}
	compute := baseCCT.Seconds() * (1 - f) / f
	return compute + cct.Seconds()
}

// JCTSpeedup returns base JCT over target JCT for one job.
func (m JCTModel) JCTSpeedup(baseCCT, targetCCT coflow.Time) float64 {
	bj := m.JCT(baseCCT, baseCCT)
	tj := m.JCT(baseCCT, targetCCT)
	if tj <= 0 {
		return 0
	}
	return bj / tj
}
