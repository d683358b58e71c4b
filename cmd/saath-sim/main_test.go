package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"saath/internal/coflow"
)

func TestMetricsStride(t *testing.T) {
	delta := 8 * coflow.Millisecond
	cases := []struct {
		step time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1}, // sub-δ rounds up to every interval
		{8 * time.Millisecond, 1},
		{9 * time.Millisecond, 2},
		{80 * time.Millisecond, 10},
	}
	for _, tc := range cases {
		if got := metricsStride(tc.step, delta); got != tc.want {
			t.Errorf("metricsStride(%v, 8ms) = %d, want %d", tc.step, got, tc.want)
		}
	}
}

func TestIsSynthetic(t *testing.T) {
	for _, name := range []string{"fb", "osp", "incast", "broadcast"} {
		if !isSynthetic(name) {
			t.Errorf("isSynthetic(%q) = false", name)
		}
	}
	for _, name := range []string{"", "fb.txt", "trace/path"} {
		if isSynthetic(name) {
			t.Errorf("isSynthetic(%q) = true", name)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want coflow.Bytes
	}{
		{"10MB", 10 * coflow.MB},
		{"1.5GB", coflow.Bytes(1.5 * float64(coflow.GB))},
		{"512KB", 512 * coflow.KB},
		{"1TB", coflow.TB},
		{"2mb", 2 * coflow.MB}, // case-insensitive units
	}
	for _, tc := range cases {
		got, err := parseBytes(tc.in)
		if err != nil {
			t.Errorf("parseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "MB", "10", "10XB", "x10MB"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) accepted", bad)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("1, 2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("parseSeeds = %v, %v", got, err)
	}
	for _, bad := range []string{"", "1,,2", "x"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

func TestLoadTrace(t *testing.T) {
	fb, err := loadTrace("fb", 1)
	if err != nil || fb.NumPorts != 150 {
		t.Fatalf("fb: %v ports=%d", err, fb.NumPorts)
	}
	osp, err := loadTrace("osp", 1)
	if err != nil || osp.NumPorts != 100 {
		t.Fatalf("osp: %v", err)
	}
	incast, err := loadTrace("incast", 1)
	if err != nil || incast.NumPorts != 60 {
		t.Fatalf("incast: %v", err)
	}
	bcast, err := loadTrace("broadcast", 1)
	if err != nil || bcast.NumPorts != 60 {
		t.Fatalf("broadcast: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	if err := os.WriteFile(path, []byte("2 1\n0 0 1 0 1 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := loadTrace(path, 0)
	if err != nil || len(file.Specs) != 1 {
		t.Fatalf("file: %v", err)
	}
	if _, err := loadTrace(filepath.Join(dir, "missing"), 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestStudyFromFlags: the CLI's ad-hoc grid compiles to a validated
// study with the flag semantics intact — seeds × schedulers expansion,
// first scheduler as baseline, telemetry spec threaded through.
func TestStudyFromFlags(t *testing.T) {
	st, err := studyFromFlags(flagGrid{
		traceArg: "fb", seeds: "1,2", scheds: "aalo,saath",
		delta: 8 * time.Millisecond, rateGbps: 1, arrival: 1,
		growth: 10, queues: 10, deadline: 2,
		metrics: true, metricsStep: 16 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Baseline() != "aalo" {
		t.Fatalf("baseline = %q", st.Baseline())
	}
	jobs := st.Jobs()
	if len(jobs) != 4 { // 2 seeds × 2 schedulers
		t.Fatalf("jobs = %d, want 4", len(jobs))
	}
	j := jobs[0]
	if !j.Telemetry.Enabled || j.Telemetry.Stride != 2 {
		t.Fatalf("telemetry spec = %+v", j.Telemetry)
	}
	// -metrics turns on the Fig. 4-style consumers, observing the
	// ladder the CLI's K/S/E flags configure.
	if !j.Telemetry.QueueTransitions || !j.Telemetry.PortHeatmap {
		t.Fatalf("spatial telemetry not enabled: %+v", j.Telemetry)
	}
	if j.Telemetry.TransitionQueues.NumQueues != 10 {
		t.Fatalf("transition ladder = %+v", j.Telemetry.TransitionQueues)
	}
	if j.Config.Delta != 8*coflow.Millisecond {
		t.Fatalf("delta = %v", j.Config.Delta)
	}

	// A typo'd scheduler fails at compile time, before any simulation.
	if _, err := studyFromFlags(flagGrid{
		traceArg: "fb", seeds: "1", scheds: "aalo,typo",
		delta: 8 * time.Millisecond, rateGbps: 1, arrival: 1,
		growth: 10, queues: 10, deadline: 2,
	}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}

	// The arrival factor lands in the study (and thus job-key /
	// shard-fingerprint) namespace: a -A drift between shard runs must
	// not merge.
	st2, err := studyFromFlags(flagGrid{
		traceArg: "fb", seeds: "1", scheds: "aalo,saath",
		delta: 8 * time.Millisecond, rateGbps: 1, arrival: 2,
		growth: 10, queues: 10, deadline: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Name() == st.Name() {
		t.Fatalf("arrival factor invisible in study name %q", st2.Name())
	}
	if got := st2.Jobs()[0].Trace; got != st2.Name() {
		t.Fatalf("trace name %q != study name %q", got, st2.Name())
	}
}
