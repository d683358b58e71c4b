package study

import (
	"bytes"
	"context"
	"io"
	"slices"
	"testing"

	"saath/internal/obs"
	"saath/internal/sim"
	"saath/internal/sweep"
)

// TestObservabilityNeutralGolden is the tentpole acceptance golden:
// every deterministic export of a study — summary JSON, telemetry CSV
// and JSON, derived tables — is byte-identical with observability
// fully enabled (recorder + aggregate progress meter) at any
// parallelism, and under shard + merge with observers attached to
// every shard.
func TestObservabilityNeutralGolden(t *testing.T) {
	st := shardStudy(t)
	ctx := context.Background()

	bare, err := st.Run(ctx, Pool{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Err(); err != nil {
		t.Fatal(err)
	}
	wantJS, wantCSV, wantMJS, wantTables := exports(t, bare)

	// Parallel run with the full observability stack attached.
	rec := obs.NewRecorder(st.Name())
	observed, err := st.Run(ctx, Pool{
		Parallel: 8,
		Observer: rec,
		Progress: sweep.CLIProgress(true, io.Discard, st.Jobs()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := observed.Err(); err != nil {
		t.Fatal(err)
	}
	gotJS, gotCSV, gotMJS, gotTables := exports(t, observed)
	if gotJS != wantJS {
		t.Errorf("summary JSON differs with observability on:\n--- off ---\n%s\n--- on ---\n%s", wantJS, gotJS)
	}
	if gotCSV != wantCSV {
		t.Errorf("telemetry CSV differs with observability on")
	}
	if gotMJS != wantMJS {
		t.Errorf("telemetry JSON differs with observability on (lengths %d vs %d)", len(wantMJS), len(gotMJS))
	}
	if gotTables != wantTables {
		t.Errorf("derived tables differ with observability on:\n--- off ---\n%s\n--- on ---\n%s", wantTables, gotTables)
	}

	// The side channel itself is fully populated.
	m := rec.Manifest()
	if len(m.Jobs) != len(st.Jobs()) {
		t.Fatalf("manifest has %d jobs, want %d", len(m.Jobs), len(st.Jobs()))
	}
	if m.Totals.Counters.Epochs == 0 || m.Totals.Counters.Retired == 0 {
		t.Errorf("manifest counters empty: %+v", m.Totals.Counters)
	}
	for _, j := range m.Jobs {
		if !slices.ContainsFunc(j.Span.Children, func(c *obs.Span) bool { return c.Name == "run" }) {
			t.Fatalf("job %d missing run span", j.Index)
		}
	}

	// Shard + merge with an observer on every shard.
	var dumps []*ShardDump
	for i := 0; i < 2; i++ {
		sh := Sharded{Index: i, Count: 2}
		sh.Pool = Pool{
			Parallel: 2,
			Observer: obs.NewRecorder(st.Name()),
			Progress: sweep.CLIProgress(true, io.Discard, sh.Jobs(st.Jobs())),
		}
		res, err := st.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteShard(&buf, sh); err != nil {
			t.Fatal(err)
		}
		dump, err := ReadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, dump)
	}
	merged, err := MergeShards(st, dumps...)
	if err != nil {
		t.Fatal(err)
	}
	mJS, mCSV, mMJS, mTables := exports(t, merged)
	if mJS != wantJS || mCSV != wantCSV || mMJS != wantMJS || mTables != wantTables {
		t.Errorf("sharded run with observers attached does not merge back to the bare bytes")
	}
}

// TestCapacityCatalogStudy pins the capacity study's shape: the full
// load grid expands (5 arrival factors × 2 schedulers × 2 seeds) and
// every job carries a numeric load axis for knee detection.
func TestCapacityCatalogStudy(t *testing.T) {
	st, err := Build("capacity")
	if err != nil {
		t.Fatal(err)
	}
	jobs := st.Jobs()
	want := len(capacityLoads) * 2 * 2 // loads × schedulers × seeds
	if len(jobs) != want {
		t.Fatalf("capacity study expands to %d jobs, want %d", len(jobs), want)
	}
	axes := map[float64]bool{}
	for _, j := range jobs {
		v, ok := obs.AxisValue(j.Variant)
		if !ok {
			t.Fatalf("job %s has no numeric load axis", j.Key())
		}
		axes[v] = true
	}
	if len(axes) != len(capacityLoads) {
		t.Fatalf("capacity study sweeps %d load points, want %d", len(axes), len(capacityLoads))
	}
}

// TestCountersRejectedInStudyConfigs pins the sharing guard: engine
// counters in a study or variant config would be summed across every
// parallel job, so validation refuses them.
func TestCountersRejectedInStudyConfigs(t *testing.T) {
	base := []Option{
		WithTraces(tinySource("tiny")),
		WithSchedulers("saath"),
	}
	counted := sim.Config{Counters: &obs.EngineCounters{}}
	if _, err := New("bad", append(base, WithSimConfig(counted))...); err == nil {
		t.Error("study-level counters accepted")
	}
	if _, err := New("bad", append(base, WithParamGrid(sweep.Variant{
		Name: "v", Config: counted,
	}))...); err == nil {
		t.Error("variant-level counters accepted")
	}
}
