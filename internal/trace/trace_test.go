package trace

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"saath/internal/coflow"
)

const sampleTrace = `4 2
0 100 2 0 1 2 2:8 3:4
1 250 1 3 1 0:6
`

func TestParseBasic(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPorts != 4 || len(tr.Specs) != 2 {
		t.Fatalf("ports=%d coflows=%d", tr.NumPorts, len(tr.Specs))
	}
	c0 := tr.Specs[0]
	if c0.ID != 0 || c0.Arrival != 100*coflow.Millisecond {
		t.Fatalf("c0 = %+v", c0)
	}
	// 2 mappers × 2 reducers = 4 flows; reducer 2 carries 8 MB split
	// across 2 mappers -> 4 MB per flow.
	if c0.Width() != 4 {
		t.Fatalf("width = %d", c0.Width())
	}
	var toPort2 coflow.Bytes
	for _, f := range c0.Flows {
		if f.Dst == 2 {
			toPort2 += f.Size
			if f.Size != 4*coflow.MB {
				t.Fatalf("flow to reducer 2 size = %d", f.Size)
			}
		}
	}
	if toPort2 != 8*coflow.MB {
		t.Fatalf("reducer 2 total = %d", toPort2)
	}
	c1 := tr.Specs[1]
	if c1.Width() != 1 || c1.Flows[0].Size != 6*coflow.MB {
		t.Fatalf("c1 = %+v", c1.Flows)
	}
}

func TestParseSortsByArrival(t *testing.T) {
	input := "4 2\n5 900 1 0 1 1:1\n6 100 1 2 1 3:1\n"
	tr, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Specs[0].ID != 6 || tr.Specs[1].ID != 5 {
		t.Fatalf("order = %d, %d", tr.Specs[0].ID, tr.Specs[1].ID)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad header", "x y\n"},
		{"short header", "4\n"},
		{"missing coflow", "4 1\n"},
		{"bad id", "4 1\nx 0 1 0 1 1:1\n"},
		{"bad mapper count", "4 1\n0 0 z 0 1 1:1\n"},
		{"zero mappers", "4 1\n0 0 0 1 1:1\n"},
		{"missing reducer", "4 1\n0 0 1 0 2 1:1\n"},
		{"no colon", "4 1\n0 0 1 0 1 11\n"},
		{"bad size", "4 1\n0 0 1 0 1 1:x\n"},
		{"negative size", "4 1\n0 0 1 0 1 1:-3\n"},
		{"port out of range", "2 1\n0 0 1 0 1 9:1\n"},
		{"duplicate id", "4 2\n0 0 1 0 1 1:1\n0 0 1 2 1 3:1\n"},
		{"negative coflow count", "4 -1\n"},
		{"coflow count beyond the records", "0 10000000000"},
		{"mapper count beyond the record", "4 1\n0 0 9223372036854775807 0 1 1:1\n"},
		{"arrival overflows", "4 1\n0 9223372036854775807 1 0 1 1:1\n"},
		{"NaN size", "4 1\n0 0 1 0 1 1:NaN\n"},
		{"2^53 bytes", "4 1\n0 0 1 0 2 1:5e9 2:5e9\n"},
		// A port is 32 bits: 2^32+3 and 2^32+2 must not wrap onto 3 and 2.
		{"mapper port beyond 32 bits", "4 1\n0 0 1 4294967299 1 1:1\n"},
		{"reducer port beyond 32 bits", "4 1\n0 0 1 0 1 4294967298:1\n"},
		{"port count beyond 32 bits", "2147483648 1\n0 0 1 0 1 1:1\n"},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if len(back.Specs) != len(orig.Specs) {
		t.Fatalf("coflows %d != %d", len(back.Specs), len(orig.Specs))
	}
	for i := range orig.Specs {
		a, b := orig.Specs[i], back.Specs[i]
		if a.ID != b.ID || a.Arrival != b.Arrival || a.Width() != b.Width() {
			t.Fatalf("coflow %d mismatch: %+v vs %+v", i, a, b)
		}
		if a.TotalSize() != b.TotalSize() {
			t.Fatalf("coflow %d size %d != %d", i, a.TotalSize(), b.TotalSize())
		}
	}
}

func TestSynthRoundTrip(t *testing.T) {
	tr := Synthesize(SynthConfig{
		Seed: 1, NumPorts: 20, NumCoFlows: 40,
		MeanInterArrival: 50 * coflow.Millisecond,
		SingleFlowFrac:   0.2, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
		SmallFracNarrow: 0.8, SmallFracWide: 0.4,
		MinSmall: coflow.MB, MaxSmall: 100 * coflow.MB,
		MinLarge: 100 * coflow.MB, MaxLarge: coflow.GB,
	}, "t")
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Specs) != 40 {
		t.Fatalf("coflows = %d", len(back.Specs))
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr, _ := Parse(strings.NewReader(sampleTrace))
	cp := tr.Clone()
	cp.Specs[0].Flows[0].Size = 999
	cp.Specs[0].Arrival = 0
	if tr.Specs[0].Flows[0].Size == 999 || tr.Specs[0].Arrival == 0 {
		t.Fatal("Clone shares state with original")
	}
}

// TestCloneListsAreIsolated appends to every cloned spec's lists: they
// share slabs with their neighbours', so a clipped capacity is all that
// keeps an append from writing into the next spec or the original.
func TestCloneListsAreIsolated(t *testing.T) {
	tr := &Trace{Name: "dag", NumPorts: 4, Specs: []*coflow.Spec{
		{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 10}}},
		{ID: 2, Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: 20}, {Src: 2, Dst: 3, Size: 30}}, DependsOn: []coflow.CoFlowID{1}},
		{ID: 3, Flows: []coflow.FlowSpec{{Src: 3, Dst: 0, Size: 40}}, DependsOn: []coflow.CoFlowID{1, 2}},
		{ID: 4},
	}}
	want := tr.Clone()
	cp := tr.Clone()
	if s := cp.Specs[3]; s.Flows != nil || s.DependsOn != nil || cp.Specs[0].DependsOn != nil {
		t.Fatalf("empty lists clone to %v, %v and %v, want nil", s.Flows, s.DependsOn, cp.Specs[0].DependsOn)
	}
	extra := coflow.FlowSpec{Src: 3, Dst: 3, Size: 999}
	for _, s := range cp.Specs {
		s.Flows = append(s.Flows, extra)
		s.DependsOn = append(s.DependsOn, 999)
	}
	for i, s := range cp.Specs {
		w := want.Specs[i]
		if !slices.Equal(s.Flows, append(slices.Clone(w.Flows), extra)) || !slices.Equal(s.DependsOn, append(slices.Clone(w.DependsOn), 999)) {
			t.Errorf("clone's spec %d is %+v after the appends, want %+v plus one", i, s, w)
		}
	}
	if !reflect.DeepEqual(tr, want) {
		t.Errorf("original is %+v after appends to its clone, want %+v", tr, want)
	}
}

func TestScaleArrivals(t *testing.T) {
	tr, _ := Parse(strings.NewReader(sampleTrace))
	tr.ScaleArrivals(0.5)
	if tr.Specs[0].Arrival != 50*coflow.Millisecond {
		t.Fatalf("arrival = %v", tr.Specs[0].Arrival)
	}
}

func TestSynthDeterministic(t *testing.T) {
	a := SynthFB(7)
	b := SynthFB(7)
	if len(a.Specs) != len(b.Specs) {
		t.Fatal("lengths differ")
	}
	for i := range a.Specs {
		if a.Specs[i].Arrival != b.Specs[i].Arrival || a.Specs[i].TotalSize() != b.Specs[i].TotalSize() {
			t.Fatalf("spec %d differs", i)
		}
	}
	c := SynthFB(8)
	same := true
	for i := range a.Specs {
		if a.Specs[i].TotalSize() != c.Specs[i].TotalSize() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSynthFBMarginals(t *testing.T) {
	tr := SynthFB(1)
	s := Summarize(tr)
	if s.NumCoFlows != 526 || s.NumPorts != 150 {
		t.Fatalf("shape: %d coflows %d ports", s.NumCoFlows, s.NumPorts)
	}
	// Published marginals: 23% single, 50% equal, 27% unequal, with
	// sampling slack.
	if s.SingleFrac < 0.17 || s.SingleFrac > 0.29 {
		t.Errorf("single fraction = %.2f, want ~0.23", s.SingleFrac)
	}
	if s.EqualFrac < 0.40 || s.EqualFrac > 0.60 {
		t.Errorf("equal fraction = %.2f, want ~0.50", s.EqualFrac)
	}
	if s.UnequalFrac < 0.17 || s.UnequalFrac > 0.37 {
		t.Errorf("unequal fraction = %.2f, want ~0.27", s.UnequalFrac)
	}
	if s.MaxWidth <= 10 {
		t.Errorf("max width = %d, want wide coflows present", s.MaxWidth)
	}
}

func TestSynthOSPBusierThanFB(t *testing.T) {
	fb := Summarize(SynthFB(3))
	osp := Summarize(SynthOSP(3))
	if osp.NumCoFlows < 2*fb.NumCoFlows/2 { // O(1000) vs 526
		t.Fatalf("osp coflows = %d", osp.NumCoFlows)
	}
	// The paper attributes OSP's higher P90 speedup to busier ports.
	fbDensity := fb.PortBusyness / fb.ArrivalSpan.Seconds()
	ospDensity := osp.PortBusyness / osp.ArrivalSpan.Seconds()
	if ospDensity <= fbDensity {
		t.Errorf("OSP port density %.2f/s not busier than FB %.2f/s", ospDensity, fbDensity)
	}
}

func TestClassify(t *testing.T) {
	single := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Size: 5}}}
	if Classify(single) != SingleFlow {
		t.Fatal("single misclassified")
	}
	equal := &coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Size: 100, Dst: 1}, {Size: 100, Dst: 2}}}
	if Classify(equal) != EqualLength {
		t.Fatal("equal misclassified")
	}
	unequal := &coflow.Spec{ID: 3, Flows: []coflow.FlowSpec{{Size: 100, Dst: 1}, {Size: 500, Dst: 2}}}
	if Classify(unequal) != UnequalLength {
		t.Fatal("unequal misclassified")
	}
}

func TestNormalizedSizeStdDev(t *testing.T) {
	s := &coflow.Spec{Flows: []coflow.FlowSpec{{Size: 10}, {Size: 10}}}
	if got := NormalizedSizeStdDev(s); got != 0 {
		t.Fatalf("equal flows dev = %v", got)
	}
	s = &coflow.Spec{Flows: []coflow.FlowSpec{{Size: 0}, {Size: 0}}}
	if got := NormalizedSizeStdDev(s); got != 0 {
		t.Fatalf("zero flows dev = %v", got)
	}
	s = &coflow.Spec{Flows: []coflow.FlowSpec{{Size: 1}, {Size: 3}}}
	// mean 2, stddev 1, normalized 0.5
	if got := NormalizedSizeStdDev(s); got != 0.5 {
		t.Fatalf("dev = %v, want 0.5", got)
	}
}

func TestMicroTraces(t *testing.T) {
	for _, tr := range []*Trace{Fig1Trace(), Fig4Trace(), Fig8Trace(), Fig17Trace()} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
	}
	if got := len(Fig1Trace().Specs); got != 4 {
		t.Fatalf("fig1 coflows = %d", got)
	}
	// Fig 17: C1 is two 5-unit flows.
	c1 := Fig17Trace().Specs[0]
	if c1.Width() != 2 || c1.Flows[0].Size != 5*MicroUnitBytes {
		t.Fatalf("fig17 C1 = %+v", c1.Flows)
	}
}

// TestValidateDuplicateID: a repeated coflow ID is named in the error,
// wherever in the trace its twin sits; a spec or port error elsewhere
// in the trace is reported first.
func TestValidateDuplicateID(t *testing.T) {
	spec := func(id coflow.CoFlowID, dst coflow.PortID) *coflow.Spec {
		return &coflow.Spec{ID: id, Flows: []coflow.FlowSpec{{Src: 0, Dst: dst, Size: 1}}}
	}
	tr := &Trace{Name: "dup", NumPorts: 2, Specs: []*coflow.Spec{spec(7, 1), spec(3, 1), spec(-2, 1), spec(3, 1), spec(5, 1)}}
	if err := tr.Validate(); err == nil || err.Error() != `trace "dup": duplicate coflow id 3` {
		t.Errorf("duplicate id 3: err = %v", err)
	}
	tr.Specs[3].ID = 4
	if err := tr.Validate(); err != nil {
		t.Errorf("unique ids: %v", err)
	}
	tr.Specs[3].ID = 3
	tr.Specs = append(tr.Specs, spec(9, 2))
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "coflow 9 flow 0: port out of range") {
		t.Errorf("port error behind a duplicate: err = %v", err)
	}
	tr.Specs[len(tr.Specs)-1] = &coflow.Spec{ID: 9}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "coflow 9: no flows") {
		t.Errorf("spec error behind a duplicate: err = %v", err)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(&Trace{NumPorts: 4})
	if s.NumCoFlows != 0 || s.TotalBytes != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestSynthConfigValidation: a configuration Synthesize cannot generate
// from fails Validate with an error naming the field, and Synthesize
// panics with that same error; the family defaults, two ports and a zero
// mean gap (every CoFlow at once) pass.
func TestSynthConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SynthConfig)
		want   string // substring of the expected error; "" for valid
	}{
		{"fb default", func(*SynthConfig) {}, ""},
		{"osp default", func(c *SynthConfig) { *c = DefaultOSPConfig(1) }, ""},
		{"all at once", func(c *SynthConfig) { c.MeanInterArrival = 0 }, ""},
		{"two ports", func(c *SynthConfig) { c.NumPorts = 2 }, ""},
		{"one port", func(c *SynthConfig) { c.NumPorts = 1 }, "NumPorts=1"},
		{"no ports", func(c *SynthConfig) { c.NumPorts = 0 }, "NumPorts=0"},
		{"no coflows", func(c *SynthConfig) { c.NumCoFlows = 0 }, "NumCoFlows=0"},
		{"negative coflows", func(c *SynthConfig) { c.NumCoFlows = -3 }, "NumCoFlows=-3"},
	}
	for _, tc := range cases {
		cfg := DefaultFBConfig(1)
		cfg.NumCoFlows = 5
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			} else if tr := Synthesize(cfg, tc.name); len(tr.Specs) != cfg.NumCoFlows {
				t.Errorf("%s: %d coflows, want %d", tc.name, len(tr.Specs), cfg.NumCoFlows)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != "trace.Synthesize: "+err.Error() {
					t.Errorf("%s: Synthesize panicked with %v, want Validate's error", tc.name, r)
				}
			}()
			Synthesize(cfg, tc.name)
		}()
	}
}
