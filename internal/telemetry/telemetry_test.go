package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
)

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if got := len(points(r)); got != 0 {
		t.Fatalf("empty ring holds %d points", got)
	}
	for i := 0; i < 3; i++ {
		r.Push(Point{T: float64(i), V: float64(i)})
	}
	if got := len(points(r)); got != 3 {
		t.Fatalf("ring holds %d points, want 3", got)
	}
	pts := points(r)
	if pts[0].T != 0 || pts[2].T != 2 {
		t.Fatalf("pre-wrap points = %v", pts)
	}

	// Push past capacity: the ring must keep exactly the last 4 points
	// in stream order.
	for i := 3; i < 11; i++ {
		r.Push(Point{T: float64(i), V: float64(i)})
	}
	if got := len(points(r)); got != 4 {
		t.Fatalf("post-wrap ring holds %d points, want 4", got)
	}
	pts = points(r)
	want := []float64{7, 8, 9, 10}
	for i, p := range pts {
		if p.T != want[i] {
			t.Fatalf("post-wrap points = %v, want T = %v", pts, want)
		}
	}
}

// points is the ring's points oldest-first, in one list.
func points(r *Ring) []Point {
	older, newer := r.Halves()
	return append(append([]Point(nil), older...), newer...)
}

// TestReservoirDeterminism: a fixed seed and input stream must retain
// an identical sample on every run — the property sweep exports lean
// on for byte-identical output at any parallelism.
func TestReservoirDeterminism(t *testing.T) {
	sample := func(seed int64, n int) []indexed {
		r := NewReservoir(16, seed)
		for i := 0; i < n; i++ {
			r.Push(Point{T: float64(i), V: float64(i * i)})
		}
		return r.sample(nil)
	}
	a, b := sample(42, 10_000), sample(42, 10_000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stream produced different samples")
	}
	if len(a) != 16 {
		t.Fatalf("sample size = %d, want 16", len(a))
	}
	// Stream order is preserved.
	for i := 1; i < len(a); i++ {
		if a[i].p.T <= a[i-1].p.T {
			t.Fatalf("sample not in stream order: %v", a)
		}
	}
	// A different seed diverges (overwhelmingly likely over 10k pushes).
	if c := sample(43, 10_000); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical samples")
	}
	// Short streams are kept exactly.
	if short := sample(42, 5); len(short) != 5 {
		t.Fatalf("short stream sample = %d points, want all 5", len(short))
	}
}

// TestExportMidRunLeavesTheSample: Export sorts a copy of the reservoir
// in a scratch the caller hands on, never the reservoir's own slots,
// whose order decides which point a later push evicts. A series exported
// mid-run must end exactly as one that never was.
func TestExportMidRunLeavesTheSample(t *testing.T) {
	exported, plain := newSeries("x", "u", 4, 8, 1), newSeries("x", "u", 4, 8, 1)
	var scratch []indexed
	for i := 0; i < 1000; i++ {
		at, v := coflow.Time(i)*coflow.Millisecond, float64(i%37)
		exported.Record(at, v)
		plain.Record(at, v)
		if i%50 == 49 {
			_, scratch = exported.Export(scratch)
		}
	}
	got, _ := exported.Export(scratch)
	want, _ := plain.Export(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported mid-run: %+v\nnever exported: %+v", got.Points, want.Points)
	}
}

func TestSeriesExportMergesReservoirAndTail(t *testing.T) {
	s := newSeries("x", "u", 8, 8, 1)
	const n = 1000
	for i := 0; i < n; i++ {
		s.Record(coflow.Time(i)*coflow.Millisecond, float64(i))
	}
	d, _ := s.Export(nil)
	if d.Count != n {
		t.Fatalf("Count = %d, want %d", d.Count, n)
	}
	if d.Mean != float64(n-1)/2 || d.Max != n-1 || d.Last != n-1 {
		t.Fatalf("stats mean=%v max=%v last=%v", d.Mean, d.Max, d.Last)
	}
	if len(d.Points) < 8 || len(d.Points) > 16 {
		t.Fatalf("merged points = %d, want in [8,16]", len(d.Points))
	}
	// Strictly increasing timestamps ⇒ no duplicate between reservoir
	// and tail, and order is preserved.
	for i := 1; i < len(d.Points); i++ {
		if d.Points[i].T <= d.Points[i-1].T {
			t.Fatalf("export out of order or duplicated: %v", d.Points)
		}
	}
	// The exact tail is always present.
	if d.Points[len(d.Points)-1].V != n-1 {
		t.Fatalf("last exported point = %v, want %d", d.Points[len(d.Points)-1], n-1)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("h", []float64{0, 1, 2, 4})
	for _, v := range []float64{0, 0, 1, 2, 3, 4, 9, 100} {
		h.Add(v)
	}
	d := h.Export()
	if d.Count != 8 || d.Overflow != 2 {
		t.Fatalf("count=%d overflow=%d", d.Count, d.Overflow)
	}
	wantCounts := []int64{2, 1, 1, 2} // le0:2, le1:1, le2:1, le4: {3,4}
	for i, b := range d.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, b.Count, wantCounts[i], d.Buckets)
		}
	}
	if d.Max != 100 {
		t.Fatalf("max = %v", d.Max)
	}
	if got := d.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := d.Quantile(0.99); got != 100 { // lands in overflow → exact max
		t.Fatalf("p99 = %v, want 100", got)
	}
	if d.Sum != 119 {
		t.Fatalf("sum = %v", d.Sum)
	}
}

func TestHistogramMergeClone(t *testing.T) {
	a := NewHistogram("h", []float64{1, 2}).Export()
	h := NewHistogram("h", []float64{1, 2})
	for _, v := range []float64{1, 2, 5} {
		h.Add(v)
	}
	b := h.Export()
	m := b.Clone()
	m.Merge(&b)
	if m.Count != 6 || m.Buckets[0].Count != 2 || m.Overflow != 2 {
		t.Fatalf("merged = %+v", m)
	}
	// Clone is deep: merging did not touch the source.
	if b.Buckets[0].Count != 1 {
		t.Fatalf("Merge mutated its argument: %+v", b)
	}
	a.Merge(&b)
	if a.Count != 3 {
		t.Fatalf("merge into empty = %+v", a)
	}
}

// fakeInterval builds an Interval with two coflows on a 4-port fabric:
// c0 has rate, c1 is head-of-line blocked.
func fakeInterval(idx int) *Interval {
	c0 := coflow.New(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 2, Size: 100}, {Src: 1, Dst: 2, Size: 100},
	}})
	c1 := coflow.New(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 3, Size: 50},
	}})
	flowCap, _ := coflow.EnsureIndexed([]*coflow.CoFlow{c0, c1})
	alloc := sched.NewRateVec(flowCap)
	alloc.Set(c0.Flows[0].Idx, 100)
	alloc.Set(c0.Flows[1].Idx, 50)
	return &Interval{
		Index: idx, Now: coflow.Time(idx) * coflow.Millisecond, Delta: coflow.Millisecond,
		NumPorts: 4, PortRate: 1000,
		Active: []*coflow.CoFlow{c0, c1}, Alloc: alloc,
		AllocatedRate: 150, Admitted: 2, Completed: 0,
	}
}

func TestSuiteObserve(t *testing.T) {
	s := NewSuite(Spec{Enabled: true, Seed: 7, ProgressCoFlows: 4})
	for i := 0; i < 5; i++ {
		s.Observe(fakeInterval(i))
	}
	m := s.Metrics()
	if m.Intervals != 5 || m.Sampled != 5 {
		t.Fatalf("intervals=%d sampled=%d", m.Intervals, m.Sampled)
	}
	if sr := m.FindSeries(SeriesActiveCoFlows); sr == nil || sr.Mean != 2 {
		t.Fatalf("active series = %+v", sr)
	}
	if sr := m.FindSeries(SeriesBlockedCoFlows); sr == nil || sr.Mean != 1 {
		t.Fatalf("blocked series = %+v", sr) // c1 sendable but no rate
	}
	if sr := m.FindSeries(SeriesEgressUtil); sr == nil || math.Abs(sr.Mean-150.0/4000) > 1e-12 {
		t.Fatalf("util series = %+v", sr)
	}
	// Egress occupancy: port 0 has 2 sendable flows, port 1 has 1 →
	// mean over busy ports 1.5, max 2.
	if sr := m.FindSeries(SeriesEgressQueueMean); sr == nil || sr.Mean != 1.5 {
		t.Fatalf("egress mean series = %+v", sr)
	}
	if sr := m.FindSeries(SeriesIngressQueueMax); sr == nil || sr.Max != 2 {
		t.Fatalf("ingress max series = %+v", sr) // port 2 receives 2 flows
	}
	// Both coflows block each other via shared port 0 → k_c = 1 for
	// each, every interval.
	h := m.FindHistogram(HistContention)
	if h == nil || h.Count != 10 || h.Quantile(0.5) != 1 {
		t.Fatalf("contention hist = %+v", h)
	}
	// Progress series exist for both coflows (ProgressCoFlows 4).
	if sr := m.FindSeries(ProgressPrefix + "1"); sr == nil || sr.Count != 5 {
		t.Fatalf("progress/1 = %+v", sr)
	}
	// Export is valid JSON.
	if _, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	}
}

// TestZeroSpecKeepsScalars: the zero spec exports every series a suite
// with points does, with the same exact scalars, but no points and no
// progress series.
func TestZeroSpecKeepsScalars(t *testing.T) {
	observe := func(spec Spec) *Metrics {
		s := NewSuite(spec)
		for i := 0; i < 300; i++ {
			s.Observe(fakeInterval(i))
		}
		return s.Metrics()
	}
	base := Spec{Enabled: true, Seed: 7, QueueTransitions: true, PortHeatmap: true}
	full := base
	full.RingCap, full.ReservoirCap, full.ProgressCoFlows = 16, 16, 4
	got, want := observe(base), observe(full)

	var fixed []SeriesDump
	for _, sr := range want.Series {
		if !strings.HasPrefix(sr.Name, ProgressPrefix) {
			fixed = append(fixed, sr)
		}
	}
	if len(fixed) == len(want.Series) {
		t.Fatal("the suite with points recorded no progress series")
	}
	if len(got.Series) != len(fixed) {
		t.Fatalf("zero spec exports %d series, want the %d fixed ones", len(got.Series), len(fixed))
	}
	for i, sr := range got.Series {
		w := fixed[i]
		if sr.Name != w.Name || sr.Unit != w.Unit || sr.Count != w.Count || sr.Count != 300 ||
			sr.Mean != w.Mean || sr.Max != w.Max || sr.Last != w.Last {
			t.Errorf("series %d = %+v, want the scalars of %+v", i, sr, w)
		}
		if sr.Points != nil || len(w.Points) == 0 {
			t.Errorf("%s: %d points, want none (%d with points asked for)", sr.Name, len(sr.Points), len(w.Points))
		}
	}
	if !reflect.DeepEqual(got.Histograms, want.Histograms) || !reflect.DeepEqual(got.Heatmaps, want.Heatmaps) {
		t.Error("histograms or heatmaps depend on the points spec")
	}
}

func TestSuiteStride(t *testing.T) {
	s := NewSuite(Spec{Enabled: true, Stride: 4, Seed: 1})
	for i := 0; i < 10; i++ {
		s.Observe(fakeInterval(i))
	}
	m := s.Metrics()
	if m.Intervals != 10 || m.Sampled != 3 { // indexes 0, 4, 8
		t.Fatalf("intervals=%d sampled=%d, want 10/3", m.Intervals, m.Sampled)
	}
}

func TestSuiteProgressCap(t *testing.T) {
	s := NewSuite(Spec{Enabled: true, ProgressCoFlows: 1, Seed: 1})
	s.Observe(fakeInterval(0))
	m := s.Metrics()
	if sr := m.FindSeries(ProgressPrefix + "2"); sr != nil {
		t.Fatal("progress cap not enforced")
	}
	if sr := m.FindSeries(ProgressPrefix + "1"); sr == nil {
		t.Fatal("first coflow not tracked")
	}
}

// TestSuiteDeterminism: identical observation streams produce
// byte-identical exports for the same spec seed.
func TestSuiteDeterminism(t *testing.T) {
	export := func(seed int64) []byte {
		s := NewSuite(Spec{Enabled: true, Seed: seed, RingCap: 4, ReservoirCap: 4})
		for i := 0; i < 500; i++ {
			s.Observe(fakeInterval(i))
		}
		b, err := json.Marshal(s.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(export(9)) != string(export(9)) {
		t.Fatal("same seed produced different exports")
	}
}

func TestMixSeed(t *testing.T) {
	if mixSeed(1, "a") == mixSeed(1, "b") || mixSeed(1, "a") == mixSeed(2, "a") {
		t.Fatal("mixSeed collisions")
	}
	if mixSeed(1, "a") != mixSeed(1, "a") {
		t.Fatal("mixSeed unstable")
	}
}

func BenchmarkTelemetryObserve(b *testing.B) {
	s := NewSuite(Spec{Enabled: true, Seed: 1})
	iv := fakeInterval(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv.Index = i
		s.Observe(iv)
	}
}
