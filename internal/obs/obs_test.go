package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLatencyHistObserve(t *testing.T) {
	var h LatencyHist
	h.Observe(500 * time.Nanosecond) // bucket 0 (≤1µs)
	h.Observe(3 * time.Microsecond)  // bucket 1 (≤4µs)
	h.Observe(time.Millisecond)      // ≤1.024ms → bucket 5
	h.Observe(10 * time.Second)      // overflow
	if h.Count != 4 {
		t.Fatalf("count = %d, want 4", h.Count)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[5] != 1 {
		t.Errorf("buckets = %v", h.Buckets)
	}
	if h.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.Overflow)
	}
	if h.MaxNs != int64(10*time.Second) {
		t.Errorf("max = %d", h.MaxNs)
	}
}

func TestLatencyHistObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var h LatencyHist
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12 * time.Microsecond) }); n != 0 {
		t.Errorf("Observe allocates %.1f times, want 0", n)
	}
}

func TestEngineCountersMergeAndExports(t *testing.T) {
	a := &EngineCounters{Epochs: 10, Admitted: 5, Retired: 5,
		EventsDispatched: 20, HeapPushes: 20, HeapMax: 7, HeldEpochs: 6}
	a.EventsByKind[1] = 5
	a.Schedule.Observe(2 * time.Microsecond)
	b := &EngineCounters{Epochs: 3, HeapMax: 4, HeldEpochs: 1}
	b.EventsByKind[1] = 2

	var sum EngineCounters
	sum.Merge(a)
	sum.Merge(b)
	if sum.Epochs != 13 || sum.HeapMax != 7 || sum.HeapPushes != 20 || sum.EventsByKind[1] != 7 || sum.HeldEpochs != 7 {
		t.Errorf("merge = %+v", sum)
	}
}

func TestSpanLifecycleAndNilSafety(t *testing.T) {
	root := StartSpan("study")
	child := root.Child("compile")
	child.End()
	grand := root.Child("run").Child("job")
	grand.End()
	root.End()
	before := root.DurNs
	root.End() // idempotent
	if root.DurNs != before {
		t.Error("second End changed duration")
	}
	if len(root.Children) != 2 || root.Children[1].Name != "run" || root.Children[1].Children[0] != grand {
		t.Errorf("span tree = %+v", root)
	}
	if child.Duration() < 0 {
		t.Error("negative duration")
	}

	var nilSpan *Span
	if nilSpan.Child("x") != nil {
		t.Error("nil Child should return nil")
	}
	nilSpan.End() // must not panic
	if nilSpan.Duration() != 0 {
		t.Error("nil span has a duration")
	}
}

func TestRecorderManifest(t *testing.T) {
	rec := NewRecorder("demo")
	if !rec.Enabled() {
		t.Fatal("recorder should be enabled")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := StartSpan("job")
			sp.Child("run").End()
			sp.End()
			c := &EngineCounters{Epochs: int64(i + 1)}
			jr := JobRecord{Index: i, Trace: "fb", Scheduler: "saath", Seed: 1, Span: sp, Counters: c}
			if i == 3 {
				jr.Error = "boom"
			}
			rec.RecordJob(jr)
		}(i)
	}
	wg.Wait()

	m := rec.Manifest()
	if m.Study != "demo" || len(m.Jobs) != 8 {
		t.Fatalf("manifest shape: study=%q jobs=%d", m.Study, len(m.Jobs))
	}
	for i, j := range m.Jobs {
		if j.Index != i {
			t.Fatalf("jobs not in grid order: %d at %d", j.Index, i)
		}
	}
	if m.Totals.Jobs != 8 || m.Totals.Failed != 1 {
		t.Errorf("totals = %+v", m.Totals)
	}
	if m.Totals.Counters.Epochs != 1+2+3+4+5+6+7+8 {
		t.Errorf("merged epochs = %d", m.Totals.Counters.Epochs)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Manifest
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("manifest JSON does not round-trip: %v", err)
	}
	if len(round.Jobs) != 8 || round.Totals.Counters.Epochs != m.Totals.Counters.Epochs {
		t.Errorf("round-trip lost data")
	}

	var disabled *Recorder
	if disabled.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	disabled.RecordJob(JobRecord{}) // must not panic
	if dm := disabled.Manifest(); dm == nil || len(dm.Jobs) != 0 {
		t.Error("nil recorder manifest should be empty, non-nil")
	}
}

func TestDetectKnee(t *testing.T) {
	// Linear then super-linear: knee after the 4th point.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1, 2, 3, 4, 9, 20}
	k := DetectKnee(xs, ys, 0.5)
	if !k.Detected || k.Index != 4 || k.Load != 4 {
		t.Fatalf("knee = %+v, want detected at index 4 (load 4)", k)
	}
	if k.Actual != 9 || k.Predicted >= 9 {
		t.Errorf("knee prediction: %+v", k)
	}

	// Perfectly linear: no knee.
	if k := DetectKnee(xs, []float64{2, 4, 6, 8, 10, 12}, 0.5); k.Detected {
		t.Errorf("linear curve flagged: %+v", k)
	}
	// Flat near zero with tiny noise: slack keeps it linear.
	if k := DetectKnee(xs, []float64{0.01, 0.011, 0.0105, 0.0102, 0.0108, 0.0101}, 0.5); k.Detected {
		t.Errorf("flat noise flagged: %+v", k)
	}
	// Too few points.
	if k := DetectKnee([]float64{1, 2}, []float64{1, 2}, 0.5); k.Detected {
		t.Error("2-point curve flagged")
	}
	// tol <= 0 uses the default.
	if k := DetectKnee(xs, ys, 0); !k.Detected {
		t.Error("default tolerance missed the knee")
	}
}

func TestAxisValue(t *testing.T) {
	cases := []struct {
		variant string
		want    float64
		ok      bool
	}{
		{"A=2", 2, true},
		{"A=0.5", 0.5, true},
		{"deg=12,hot=2,skew=0", 12, true},
		{"delta=8ms", 8, true},
		{"policy=lcof", 0, false},
		// Only the variant is read: a cell with none has no axis,
		// whatever its trace is called ("fb@A=4", "mix-incast25").
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := AxisValue(c.variant)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("AxisValue(%q) = %v, %v; want %v, %v", c.variant, got, ok, c.want, c.ok)
		}
	}
}

func TestCapacityReport(t *testing.T) {
	// Two schedulers over a 5-point arrival sweep; saath stays linear.
	var cells []Cell
	for _, s := range []struct {
		name string
		p99  []float64
	}{
		{"aalo", []float64{1, 2, 3, 12, 30}},
		{"saath", []float64{1, 2, 3, 4, 5}},
	} {
		for i, a := range []float64{1, 2, 3, 4, 5} {
			cells = append(cells, Cell{
				Trace: "fb-cap", Variant: "A=" + []string{"1", "2", "3", "4", "5"}[i],
				Scheduler: s.name, Runs: 1, CoFlows: 100, Ports: 48,
				Throughput: 10 * a, P99CCT: s.p99[i], AvgCCT: s.p99[i] / 2,
			})
		}
	}
	series := SaturationSeriesOf(cells, 0.5)
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	if !series[0].Knee.Detected || series[0].Scheduler != "aalo" {
		t.Errorf("aalo knee: %+v", series[0].Knee)
	}
	if series[1].Knee.Detected {
		t.Errorf("saath (linear) flagged: %+v", series[1].Knee)
	}
	if got := series[0].Sustainable(); got != 30 {
		t.Errorf("aalo sustainable = %v, want 30 (last pre-knee point)", got)
	}
	if got := series[1].Sustainable(); got != 50 {
		t.Errorf("saath sustainable = %v, want 50 (max observed)", got)
	}

	tables := CapacityReport("cap", cells, 0.5)
	if len(tables) != 3 {
		t.Fatalf("report tables = %d, want 3", len(tables))
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"sustainable coflows/s", "knee", "saturated", "none (linear)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}

	// No numeric axis: the saturation table degrades with a hint row.
	none := CapacityReport("cap", []Cell{{Trace: "fb", Scheduler: "saath"}}, 0)
	buf.Reset()
	for _, tbl := range none {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "no numeric load axis") {
		t.Errorf("axis-free report missing hint:\n%s", buf.String())
	}
}

func TestProfilesStartStop(t *testing.T) {
	dir := t.TempDir()
	p := Profiles{
		CPU:   filepath.Join(dir, "cpu.pprof"),
		Mem:   filepath.Join(dir, "mem.pprof"),
		Trace: filepath.Join(dir, "trace.out"),
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = StartSpan("busywork")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPU, p.Mem, p.Trace} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	stop2, err := Profiles{}.Start()
	if err != nil || stop2 == nil {
		t.Fatalf("zero Profiles Start: %v", err)
	}
	if err := stop2(); err != nil {
		t.Error(err)
	}
}
