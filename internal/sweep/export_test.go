package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"saath/internal/telemetry"
)

// The exporters stream encoding/json's bytes a job at a time, the
// {"jobs": ...} envelope written around them; these tests hold them to
// one whole-document Encoder's bytes and errors for the same structs —
// the reference the exports are defined by and every export golden
// was recorded from.

// reference renders the two exports as one document each: reflection,
// SetIndent.
func reference(t *testing.T, s *Summary) (summary, metrics []byte, sumErr, metErr error) {
	t.Helper()
	enc := func(v any) ([]byte, error) {
		var buf bytes.Buffer
		e := json.NewEncoder(&buf)
		e.SetIndent("", "  ")
		err := e.Encode(v)
		return buf.Bytes(), err
	}
	summary, sumErr = enc(struct {
		Jobs []JobMetrics `json:"jobs"`
	}{s.Metrics()})
	metrics, metErr = enc(struct {
		Jobs []JobTelemetry `json:"jobs"`
	}{s.Telemetry()})
	return
}

// checkAgainstReference compares both exports with the reference,
// bytes and errors.
func checkAgainstReference(t *testing.T, what string, s *Summary) {
	t.Helper()
	wantSum, wantMet, wantSumErr, wantMetErr := reference(t, s)
	for _, x := range []struct {
		name    string
		write   func(*Summary, *bytes.Buffer) error
		want    []byte
		wantErr error
	}{
		{"WriteJSON", func(s *Summary, b *bytes.Buffer) error { return s.WriteJSON(b) }, wantSum, wantSumErr},
		{"WriteMetricsJSON", func(s *Summary, b *bytes.Buffer) error { return s.WriteMetricsJSON(b) }, wantMet, wantMetErr},
	} {
		var got bytes.Buffer
		err := x.write(s, &got)
		if fmt.Sprint(err) != fmt.Sprint(x.wantErr) || reflect.TypeOf(err) != reflect.TypeOf(x.wantErr) {
			t.Errorf("%s, %s: err = %v (%T), encoding/json gives %v (%T)", what, x.name, err, err, x.wantErr, x.wantErr)
			continue
		}
		if !bytes.Equal(got.Bytes(), x.want) {
			t.Errorf("%s, %s differs from encoding/json:\n--- got ---\n%s\n--- want ---\n%s", what, x.name, firstDiff(got.Bytes(), x.want), firstDiff(x.want, got.Bytes()))
		}
	}
}

// firstDiff returns a window of a around its first difference from b.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return a[max(0, i-120):min(len(a), i+120)]
}

func summaryOf(t *testing.T, entries ...Entry) *Summary {
	t.Helper()
	s := NewSummary()
	if err := s.Restore(entries...); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	awkwardFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 3, 1e6, 123456789.125, 0.1, 1.0 / 3,
		1e21, 9.999999999999999e20, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-10, 1e100, 1e-100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		float64(1 << 53), 4503599627370497.5, 5e-324,
		// Integral values either side of ±1e15, where a hand-rolled
		// formatter would take an integer shortcut, and −0.
		1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 1, 1e15 - 0.5, -1e15 + 0.5, 42, -42, 1e16,
	}
	awkwardStrings = []string{
		"", "plain", "a<b", "x&y", `q"uote`, `back\slash`, "sep\u2028para\u2029", "tab\tnl\n", "nul\x00",
		"bad\xffutf8", "\xc3\x28", "ünïcödé ✓", "</script>", "delta=8ms",
	}
)

// TestExportersMatchEncodingJSONTable walks the cases the per-job
// streaming could get wrong one at a time: the envelope, nil and empty
// lists, omitempty, float and string formatting.
func TestExportersMatchEncodingJSONTable(t *testing.T) {
	checkAgainstReference(t, "empty summary", NewSummary())

	for _, f := range awkwardFloats {
		m := &telemetry.Metrics{
			Series:     []telemetry.SeriesDump{{Name: "s", Mean: f, Max: f, Last: f, Points: []telemetry.Point{{T: f, V: f}}}},
			Histograms: []telemetry.HistogramDump{{Name: "h", Sum: f, Max: f, Buckets: []telemetry.Bucket{{LE: f, Count: 1}}}},
			Heatmaps:   []telemetry.HeatmapDump{{Name: "m", Bounds: []float64{f, f}, Ports: []telemetry.HeatmapPortDump{{Counts: []int64{1}}}}},
		}
		checkAgainstReference(t, fmt.Sprintf("float %v", f), summaryOf(t, Entry{
			Metrics:   JobMetrics{Trace: "t", Scheduler: "s", AvgCCT: f, P50CCT: f, P90CCT: f, Makespan: f, Utilization: f},
			Telemetry: m,
		}))
	}

	for _, str := range awkwardStrings {
		checkAgainstReference(t, fmt.Sprintf("string %q", str), summaryOf(t, Entry{
			Metrics: JobMetrics{Trace: str, Variant: str, Scheduler: str, Error: str},
			Telemetry: &telemetry.Metrics{
				Series:     []telemetry.SeriesDump{{Name: str, Unit: str}},
				Histograms: []telemetry.HistogramDump{{Name: str}},
				Heatmaps:   []telemetry.HeatmapDump{{Name: str}},
			},
		}))
	}

	// nil renders null, empty renders [], omitempty drops zero values —
	// and heatmaps, omitempty on a slice, vanish either way.
	checkAgainstReference(t, "nil slices", summaryOf(t, Entry{Telemetry: &telemetry.Metrics{
		Series:     []telemetry.SeriesDump{{Name: "nil points"}},
		Histograms: []telemetry.HistogramDump{{Name: "nil buckets"}},
		Heatmaps:   []telemetry.HeatmapDump{{Name: "nil bounds and ports"}, {Name: "nil counts", Bounds: []float64{}, Ports: []telemetry.HeatmapPortDump{{}}}},
	}}))
	checkAgainstReference(t, "nil series and histograms", summaryOf(t, Entry{Telemetry: &telemetry.Metrics{Intervals: 3}}))
	checkAgainstReference(t, "empty slices", summaryOf(t, Entry{Telemetry: &telemetry.Metrics{
		Series:     []telemetry.SeriesDump{{Points: []telemetry.Point{}}},
		Histograms: []telemetry.HistogramDump{{Buckets: []telemetry.Bucket{}}},
		Heatmaps:   []telemetry.HeatmapDump{},
	}}))
	checkAgainstReference(t, "empty top-level slices", summaryOf(t, Entry{Telemetry: &telemetry.Metrics{
		Series: []telemetry.SeriesDump{}, Histograms: []telemetry.HistogramDump{},
	}}))
	checkAgainstReference(t, "omitempty set", summaryOf(t, Entry{
		Metrics: JobMetrics{Trace: "t", Variant: "v", Scheduler: "s", Ports: 150, Seed: -3},
		Telemetry: &telemetry.Metrics{
			Histograms: []telemetry.HistogramDump{{Overflow: 7}},
			Heatmaps:   []telemetry.HeatmapDump{{Ports: []telemetry.HeatmapPortDump{{Port: 2, Overflow: -1, Counts: []int64{0, -5, math.MaxInt64}}}}},
		},
	}))

	// Errored jobs keep their row in the summary and, having no
	// telemetry, none in the metrics export; a grid of only such jobs
	// exports "jobs": null there.
	errored := Entry{Index: 1, Metrics: JobMetrics{Trace: "t", Scheduler: "s", Seed: 2, Error: "sim: horizon exceeded <at 3s>"}}
	checkAgainstReference(t, "errored job only", summaryOf(t, errored))
	checkAgainstReference(t, "errored job among others", summaryOf(t,
		Entry{Index: 0, Metrics: JobMetrics{Trace: "t", Scheduler: "s", Seed: 1, CoFlows: 5}, Telemetry: &telemetry.Metrics{}},
		errored,
		Entry{Index: 2, Metrics: JobMetrics{Trace: "t", Scheduler: "s", Seed: 3}, Telemetry: &telemetry.Metrics{}},
	))
}

// TestExportersRejectNonFinite: NaN and ±Inf get encoding/json's error,
// wherever they sit, and — like Encoder.Encode — not one byte of output
// that could pass for an export.
func TestExportersRejectNonFinite(t *testing.T) {
	// Positions: every float field either export reaches, one at a time.
	positions := []func(e *Entry, f float64){
		func(e *Entry, f float64) { e.Metrics.AvgCCT = f },
		func(e *Entry, f float64) { e.Metrics.P50CCT = f },
		func(e *Entry, f float64) { e.Metrics.P90CCT = f },
		func(e *Entry, f float64) { e.Metrics.Makespan = f },
		func(e *Entry, f float64) { e.Metrics.Utilization = f },
		func(e *Entry, f float64) { e.Telemetry.Series[0].Mean = f },
		func(e *Entry, f float64) { e.Telemetry.Series[0].Max = f },
		func(e *Entry, f float64) { e.Telemetry.Series[0].Last = f },
		func(e *Entry, f float64) { e.Telemetry.Series[0].Points[1].T = f },
		func(e *Entry, f float64) { e.Telemetry.Series[0].Points[1].V = f },
		func(e *Entry, f float64) { e.Telemetry.Histograms[0].Sum = f },
		func(e *Entry, f float64) { e.Telemetry.Histograms[0].Max = f },
		func(e *Entry, f float64) { e.Telemetry.Histograms[0].Buckets[0].LE = f },
		func(e *Entry, f float64) { e.Telemetry.Heatmaps[0].Bounds[1] = f },
	}
	for i, set := range positions {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			// Enough well-formed jobs ahead of the bad one that an
			// exporter without the validating pass would have written some.
			var entries []Entry
			for j := 0; j < 3; j++ {
				pts := make([]telemetry.Point, 2000)
				entries = append(entries, Entry{Index: j, Metrics: JobMetrics{Trace: "t", Scheduler: "s", Seed: int64(j)},
					Telemetry: &telemetry.Metrics{
						Series:     []telemetry.SeriesDump{{Name: "s", Points: pts}},
						Histograms: []telemetry.HistogramDump{{Name: "h", Buckets: []telemetry.Bucket{{}}}},
						Heatmaps:   []telemetry.HeatmapDump{{Name: "m", Bounds: []float64{0, 1}}},
					}})
			}
			set(&entries[2], f)
			s := summaryOf(t, entries...)
			checkAgainstReference(t, fmt.Sprintf("position %d = %v", i, f), s)
			var sum, met bytes.Buffer
			errSum, errMet := s.WriteJSON(&sum), s.WriteMetricsJSON(&met)
			if errSum == nil && errMet == nil {
				t.Fatalf("position %d = %v: neither export failed", i, f)
			}
			if (errSum != nil && sum.Len() > 0) || (errMet != nil && met.Len() > 0) {
				t.Errorf("position %d = %v: a failed export wrote %d / %d bytes", i, f, sum.Len(), met.Len())
			}
		}
	}
}

// TestExportersMatchEncodingJSONRandom fills the exported structs by
// reflection — every field, whatever is added to them later — from a
// seeded source, and compares a few hundred summaries. A field the
// per-job encoding renders unlike the whole document shows up as a
// difference here.
func TestExportersMatchEncodingJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 300; round++ {
		var entries []Entry
		for i, n := 0, rng.Intn(4); i < n; i++ {
			e := Entry{Index: i}
			fillRandom(rng, reflect.ValueOf(&e.Metrics).Elem(), 0)
			if rng.Intn(4) > 0 {
				e.Telemetry = &telemetry.Metrics{}
				fillRandom(rng, reflect.ValueOf(e.Telemetry).Elem(), 0)
			}
			entries = append(entries, e)
		}
		checkAgainstReference(t, fmt.Sprintf("round %d", round), summaryOf(t, entries...))
		if t.Failed() {
			return
		}
	}
}

// fillRandom sets every settable field under v: zero values often
// enough to exercise omitempty, nil and empty slices as well as filled
// ones, floats and strings from the awkward pools as well as random.
func fillRandom(rng *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i), depth+1)
		}
	case reflect.String:
		if rng.Intn(3) > 0 {
			v.SetString(awkwardStrings[rng.Intn(len(awkwardStrings))])
		}
	case reflect.Int, reflect.Int64:
		switch rng.Intn(4) {
		case 0:
		case 1:
			v.SetInt(rng.Int63() - rng.Int63())
		default:
			v.SetInt(int64(rng.Intn(2000) - 100))
		}
	case reflect.Float64:
		switch rng.Intn(5) {
		case 0:
			v.SetFloat(awkwardFloats[rng.Intn(len(awkwardFloats))])
		case 1:
			v.SetFloat(math.Float64frombits(rng.Uint64() &^ (1 << 62))) // any finite magnitude
		case 2:
			v.SetFloat(float64(rng.Intn(100000)) / 1000)
		case 3: // integral: small, or anywhere to just past ±1e15
			if rng.Intn(2) == 0 {
				v.SetFloat(float64(rng.Intn(2001) - 1000))
			} else {
				v.SetFloat(float64(rng.Int63n(2e15+5) - 1e15 - 2))
			}
		default:
			v.SetFloat(rng.NormFloat64() * 1e3)
		}
	case reflect.Slice:
		switch rng.Intn(5) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + rng.Intn(max(1, 6-depth))
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fillRandom(rng, v.Index(i), depth+1)
			}
		}
	default:
		panic("fillRandom: exported structs grew a " + v.Kind().String() + " field; teach the exporters and this test about it")
	}
}
