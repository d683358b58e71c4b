package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"saath/internal/coflow"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4}, {90, 4.6},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); !almost(got, tc.want) {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Fatalf("singleton = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	got := Percentile(xs, 40)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
	if want := Percentile([]float64{1, 2, 3}, 40); got != want {
		t.Fatalf("unsorted P40 = %v, sorted %v", got, want)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(raw, pa) <= Percentile(raw, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMedian(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Fatalf("mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean")
	}
	if got := Median([]float64{1, 9}); !almost(got, 5) {
		t.Fatalf("median = %v", got)
	}
}

func TestNormStdDev(t *testing.T) {
	if got := NormStdDev([]float64{5, 5, 5}); got != 0 {
		t.Fatalf("equal values dev = %v", got)
	}
	if got := NormStdDev(nil); got != 0 {
		t.Fatalf("empty dev = %v", got)
	}
	if got := NormStdDev([]float64{1, 3}); !almost(got, 0.5) {
		t.Fatalf("dev = %v, want 0.5", got)
	}
	if got := NormStdDev([]float64{0, 0}); got != 0 {
		t.Fatalf("zero-mean dev = %v", got)
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{3, 1, 2, 2})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(cdf) != len(want) {
		t.Fatalf("cdf = %v", cdf)
	}
	for i := range want {
		if !almost(cdf[i].X, want[i].X) || !almost(cdf[i].F, want[i].F) {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Fatal("empty cdf")
	}
	if got := CDFAt(cdf, 2); !almost(got, 0.75) {
		t.Fatalf("CDFAt(2) = %v", got)
	}
	if got := CDFAt(cdf, 0.5); got != 0 {
		t.Fatalf("CDFAt(0.5) = %v", got)
	}
	if got := CDFAt(cdf, 99); !almost(got, 1) {
		t.Fatalf("CDFAt(99) = %v", got)
	}
}

func TestCDFIsMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		clean := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		cdf := CDF(clean)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].X <= cdf[i-1].X || cdf[i].F < cdf[i-1].F {
				return false
			}
		}
		return len(cdf) == 0 || almost(cdf[len(cdf)-1].F, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedups(t *testing.T) {
	base := map[coflow.CoFlowID]coflow.Time{1: 100, 2: 300, 3: 50}
	target := map[coflow.CoFlowID]coflow.Time{1: 50, 2: 100, 4: 10}
	sp := Speedups(base, target)
	want := []float64{2, 3}
	if len(sp) != 2 {
		t.Fatalf("speedups = %v", sp)
	}
	sort.Float64s(want)
	for i := range want {
		if !almost(sp[i], want[i]) {
			t.Fatalf("speedups = %v, want %v", sp, want)
		}
	}
}

func TestSpeedupsSkipsDegenerate(t *testing.T) {
	base := map[coflow.CoFlowID]coflow.Time{1: 0, 2: -5, 3: 10}
	target := map[coflow.CoFlowID]coflow.Time{1: 5, 2: 5, 3: 0}
	if sp := Speedups(base, target); len(sp) != 0 {
		t.Fatalf("degenerate speedups = %v", sp)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if !almost(s.Median, 3) || s.N != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestOverallSpeedupPercent(t *testing.T) {
	if got := OverallSpeedupPercent(2, 1); !almost(got, 50) {
		t.Fatalf("overall = %v", got)
	}
	if got := OverallSpeedupPercent(0, 1); got != 0 {
		t.Fatalf("zero base = %v", got)
	}
}

func TestAssignBin(t *testing.T) {
	cases := []struct {
		size  coflow.Bytes
		width int
		want  Bin
	}{
		{50 * coflow.MB, 5, Bin1},
		{100 * coflow.MB, 10, Bin1}, // boundaries inclusive on the small side
		{50 * coflow.MB, 11, Bin2},
		{200 * coflow.MB, 10, Bin3},
		{200 * coflow.MB, 11, Bin4},
	}
	for _, tc := range cases {
		if got := AssignBin(tc.size, tc.width); got != tc.want {
			t.Errorf("AssignBin(%d, %d) = %v, want %v", tc.size, tc.width, got, tc.want)
		}
	}
}

func TestJCTModel(t *testing.T) {
	m := JCTModel{ShuffleFraction: 0.5}
	base := coflow.Second
	// compute = 1s; baseline JCT = 2s; halving CCT -> JCT 1.5s.
	if got := m.JCT(base, base); !almost(got, 2) {
		t.Fatalf("baseline JCT = %v", got)
	}
	if got := m.JCTSpeedup(base, base/2); !almost(got, 2.0/1.5) {
		t.Fatalf("JCT speedup = %v", got)
	}
	// Shuffle-only jobs inherit the CCT speedup exactly.
	m = JCTModel{ShuffleFraction: 1}
	if got := m.JCTSpeedup(base, base/2); !almost(got, 2) {
		t.Fatalf("pure-shuffle speedup = %v", got)
	}
	// Invalid fraction behaves like pure shuffle rather than dividing
	// by zero.
	m = JCTModel{ShuffleFraction: 0}
	if got := m.JCT(base, base); !almost(got, 1) {
		t.Fatalf("invalid fraction JCT = %v", got)
	}
}

func TestJCTSpeedupBoundedByCCTSpeedupProperty(t *testing.T) {
	// JCT speedup never exceeds the raw CCT speedup (compute dilutes it).
	f := func(rawF uint8, rawB, rawT uint16) bool {
		frac := (float64(rawF%100) + 1) / 100
		base := coflow.Time(rawB+1) * coflow.Millisecond
		tgt := coflow.Time(rawT+1) * coflow.Millisecond
		m := JCTModel{ShuffleFraction: frac}
		js := m.JCTSpeedup(base, tgt)
		cs := float64(base) / float64(tgt)
		if cs >= 1 {
			return js <= cs+1e-9 && js >= 1-1e-9
		}
		return js >= cs-1e-9 && js <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
