package study

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sim"
	"saath/internal/telemetry"
)

// shardTelemetry is the golden-test subject's telemetry: points and
// progress series included, so they ride the codec and the merge too.
// The drifted studies below share it, so each differs from the subject
// only where it means to.
var shardTelemetry = telemetry.Spec{Enabled: true, RingCap: 256, ReservoirCap: 256, ProgressCoFlows: 4}

// shardStudy is the golden-test subject: saath + aalo over two seeds
// with full telemetry.
func shardStudy(t *testing.T) *Study {
	t.Helper()
	st, err := New("shard-golden",
		WithTraces(tinySource("tiny")),
		WithSchedulers("aalo", "saath"),
		WithSeeds(1, 2),
		WithBaseline("aalo"),
		WithTelemetry(shardTelemetry))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// exports renders every deterministic artifact of a study result: the
// summary JSON, the telemetry CSV and JSON, and the derived tables.
func exports(t *testing.T, res *Result) (summaryJSON, metricsCSV, metricsJSON, tables string) {
	t.Helper()
	var js, csv, mjs bytes.Buffer
	if err := res.Summary().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := res.Summary().WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.Summary().WriteMetricsJSON(&mjs); err != nil {
		t.Fatal(err)
	}
	tbls, err := res.Tables()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tbl := range tbls {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return js.String(), csv.String(), mjs.String(), sb.String()
}

// TestShardedMergeGolden is the sharded determinism contract: running
// shard 0/2 and shard 1/2 in separate Summaries, exporting each
// through the shard dump, and merging must reproduce the
// single-process run byte for byte — summary JSON, telemetry CSV and
// JSON, and every derived table.
func TestShardedMergeGolden(t *testing.T) {
	st := shardStudy(t)
	ctx := context.Background()

	whole, err := st.Run(ctx, Pool{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Err(); err != nil {
		t.Fatal(err)
	}
	wantJS, wantCSV, wantMJS, wantTables := exports(t, whole)

	// Each shard runs in its own Summary — as it would in its own
	// process — and round-trips through the serialized dump.
	var dumps []*ShardDump
	for i := 0; i < 2; i++ {
		sh := Sharded{Index: i, Count: 2, Pool: Pool{Parallel: 2}}
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
		if dump.Shard != i || dump.Of != 2 || dump.Jobs != len(st.Jobs()) {
			t.Fatalf("dump identity: %+v", dump)
		}
		dumps = append(dumps, dump)
	}

	merged, err := MergeShards(st, dumps...)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Err(); err != nil {
		t.Fatal(err)
	}
	gotJS, gotCSV, gotMJS, gotTables := exports(t, merged)

	if gotJS != wantJS {
		t.Errorf("summary JSON differs:\n--- single ---\n%s\n--- merged ---\n%s", wantJS, gotJS)
	}
	if gotCSV != wantCSV {
		t.Errorf("telemetry CSV differs:\n--- single ---\n%s\n--- merged ---\n%s", wantCSV, gotCSV)
	}
	if gotMJS != wantMJS {
		t.Errorf("telemetry JSON differs (lengths %d vs %d)", len(wantMJS), len(gotMJS))
	}
	if gotTables != wantTables {
		t.Errorf("derived tables differ:\n--- single ---\n%s\n--- merged ---\n%s", wantTables, gotTables)
	}
}

// TestShardFileRoundTrip: the on-disk shard workflow (WriteShardFile +
// MergeShardDir) reassembles the study.
func TestShardFileRoundTrip(t *testing.T) {
	st := shardStudy(t)
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		sh := Sharded{Index: i, Count: 2, Pool: Pool{Parallel: 2}}
		res, err := st.Run(context.Background(), sh)
		if err != nil {
			t.Fatal(err)
		}
		path, err := res.WriteShardFile(dir, sh)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) != ShardFileName(st.Name(), sh) {
			t.Errorf("shard file name = %s", path)
		}
	}
	merged, err := MergeShardDir(st, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Summary().Len(), len(st.Jobs()); got != want {
		t.Fatalf("merged %d jobs, want %d", got, want)
	}
}

// TestShardFileNameSanitized: study names may be workload file paths
// (saath-sim's ad-hoc grids); the dump file name must stay flat and
// glob-safe so dumps land inside -out and the merge glob finds them.
func TestShardFileNameSanitized(t *testing.T) {
	got := ShardFileName("/tmp/tiny trace*.txt", Sharded{Index: 0, Count: 2})
	if strings.ContainsAny(got, "/*? []") {
		t.Fatalf("unsafe shard file name %q", got)
	}
	if got != "_tmp_tiny_trace_.txt-shard-0-of-2.shard" {
		t.Fatalf("shard file name = %q", got)
	}
}

// TestMergeValidation: incomplete, duplicated and mismatched shard
// sets are rejected instead of silently producing partial output.
func TestMergeValidation(t *testing.T) {
	st := shardStudy(t)
	ctx := context.Background()
	dump := func(i, n int) *ShardDump {
		sh := Sharded{Index: i, Count: n, Pool: Pool{Parallel: 2}}
		res, err := st.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteShard(&buf, sh); err != nil {
			t.Fatal(err)
		}
		d, err := ReadShard(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d0, d1 := dump(0, 2), dump(1, 2)

	if _, err := MergeShards(st, d0); err == nil || !strings.Contains(err.Error(), "missing shard") {
		t.Errorf("incomplete merge: err = %v", err)
	}
	if _, err := MergeShards(st, d0, d0); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate shard: err = %v", err)
	}
	if _, err := MergeShards(st, d0, dump(0, 3)); err == nil || !strings.Contains(err.Error(), "mixed shard partitions") {
		t.Errorf("mixed partitions: err = %v", err)
	}

	other, err := New("other-study",
		WithTraces(tinySource("tiny")),
		WithSchedulers("aalo", "saath"),
		WithSeeds(1, 2),
		WithTelemetry(shardTelemetry))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(other, d0, d1); err == nil {
		t.Error("merge into a different study accepted")
	}

	// A flag-set drift that keeps the job count but changes keys is
	// caught by the grid fingerprint.
	drift, err := New("shard-golden",
		WithTraces(tinySource("tiny")),
		WithSchedulers("aalo", "saath"),
		WithSeeds(1, 3), // seed 3 instead of 2
		WithTelemetry(shardTelemetry))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(drift, d0, d1); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("grid drift: err = %v", err)
	}

	// Physical-config drift that keeps every job key identical (a
	// different -rate) must also fail — the fingerprint covers params
	// and sim config, not just keys.
	rateDrift, err := New("shard-golden",
		WithTraces(tinySource("tiny")),
		WithSchedulers("aalo", "saath"),
		WithSeeds(1, 2),
		WithBaseline("aalo"),
		WithSimConfig(sim.Config{PortRate: coflow.GbpsRate(10)}),
		WithTelemetry(shardTelemetry))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(rateDrift, d0, d1); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("rate drift: err = %v", err)
	}
}

// TestMergeShardDirFailureModes is the on-disk merge counterpart of
// TestMergeValidation: the failure modes an operator actually hits
// when pointing `saath-sim -merge <dir>` at a bad shard directory — a
// duplicated shard dump, a dump from a drifted flag set (grid
// fingerprint mismatch), a missing shard, mixed partitions — each fail
// with a distinct, actionable error instead of rendering partial or
// double-counted output.
func TestMergeShardDirFailureModes(t *testing.T) {
	st := shardStudy(t)
	ctx := context.Background()

	// Produce the canonical dump files once; each case assembles its
	// own directory from copies.
	dumpFile := func(t *testing.T, st *Study, i, n int) (name string, data []byte) {
		t.Helper()
		sh := Sharded{Index: i, Count: n, Pool: Pool{Parallel: 2}}
		res, err := st.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteShard(&buf, sh); err != nil {
			t.Fatal(err)
		}
		return ShardFileName(st.Name(), sh), buf.Bytes()
	}
	name0, dump0 := dumpFile(t, st, 0, 2)
	name1, dump1 := dumpFile(t, st, 1, 2)
	_, dumpThird := dumpFile(t, st, 0, 3)

	// A same-name study with a drifted seed list: identical job count,
	// different grid fingerprint.
	drifted, err := New(st.Name(),
		WithTraces(tinySource("tiny")),
		WithSchedulers("aalo", "saath"),
		WithSeeds(1, 3),
		WithBaseline("aalo"),
		WithTelemetry(shardTelemetry))
	if err != nil {
		t.Fatal(err)
	}
	_, dumpDrift := dumpFile(t, drifted, 1, 2)

	// mutated re-encodes dump1 after an edit no writer would make: the
	// result is a well-formed dump (valid checksum) with impossible
	// contents.
	mutated := func(edit func(*ShardDump)) []byte {
		d, err := ReadShard(bytes.NewReader(dump1))
		if err != nil {
			t.Fatal(err)
		}
		edit(d)
		return encodeDump(t, d)
	}
	flipped := append([]byte(nil), dump1...)
	flipped[len(flipped)/2] ^= 0x10
	oldName := strings.TrimSuffix(name1, ".shard") + ".json"

	cases := []struct {
		name  string
		files map[string][]byte
		want  string // substring of the expected error
	}{
		{
			name: "duplicated shard dump",
			files: map[string][]byte{
				name0: dump0,
				name1: dump1,
				// A second copy of shard 0 under another glob-matching name.
				strings.Replace(name0, "shard-0", "shard-00", 1): dump0,
			},
			want: "supplied twice",
		},
		{
			name: "mismatched grid fingerprint",
			files: map[string][]byte{
				name0: dump0,
				name1: dumpDrift,
			},
			want: "fingerprint mismatch",
		},
		{
			name:  "missing shard",
			files: map[string][]byte{name0: dump0},
			want:  "missing shard",
		},
		{
			name: "mixed partitions",
			files: map[string][]byte{
				name0: dump0,
				name1: dump1,
				strings.Replace(name0, "of-2", "of-3", 1): dumpThird,
			},
			want: "mixed shard partitions",
		},
		{
			name:  "empty directory",
			files: nil,
			want:  "no shard dumps",
		},
		{
			// Dumps left by a build from before the binary format are not
			// silently ignored: the error says what they are.
			name:  "only old-format dumps",
			files: map[string][]byte{oldName: []byte("{\"study\": \"shard-golden\"}\n")},
			want:  "old-format JSON dump",
		},
		{
			// A worker killed mid-write leaves an incomplete dump; the
			// merge must name the file and say "truncated", not surface a
			// bare "unexpected EOF".
			name: "truncated dump file",
			files: map[string][]byte{
				name0: dump0,
				name1: dump1[:len(dump1)/2],
			},
			want: "truncated at byte",
		},
		{
			name: "empty dump file",
			files: map[string][]byte{
				name0: dump0,
				name1: nil,
			},
			want: "empty file",
		},
		{
			// JSON under the new name — an old dump renamed, or anything
			// else starting with '{' — is told apart from a corrupt dump.
			name: "corrupt JSON",
			files: map[string][]byte{
				name0: dump0,
				name1: append([]byte("{\"study\": ###"), dump1...),
			},
			want: "old-format JSON dump",
		},
		{
			name: "flipped bit",
			files: map[string][]byte{
				name0: dump0,
				name1: flipped,
			},
			want: "checksum mismatch",
		},
		{
			// Well-formed, impossible dump: a shard index outside its own
			// partition is rejected at read time with the cause.
			name: "structurally invalid dump",
			files: map[string][]byte{
				name0: dump0,
				name1: mutated(func(d *ShardDump) { d.Shard = 7 }),
			},
			want: "shard index 7 outside [0, 2)",
		},
		{
			name: "mangled grid fingerprint",
			files: map[string][]byte{
				name0: dump0,
				name1: mutated(func(d *ShardDump) { d.KeysHash = "zz" + d.KeysHash[2:] }),
			},
			want: "not a sha256 hex digest",
		},
		{
			name: "entry outside its stripe",
			files: map[string][]byte{
				name0: dump0,
				name1: mutated(func(d *ShardDump) { d.Entries[0].Index-- }),
			},
			want: "does not belong to shard 1/2",
		},
		{
			name: "entry outside the grid",
			files: map[string][]byte{
				name0: dump0,
				name1: mutated(func(d *ShardDump) { d.Entries[0].Index += 2 * d.Jobs }),
			},
			want: "outside the 4-job grid",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, data := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err := MergeShardDir(st, dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}

	// Control: the clean pair still merges.
	dir := t.TempDir()
	for name, data := range map[string][]byte{name0: dump0, name1: dump1} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeShardDir(st, dir); err != nil {
		t.Fatalf("clean merge failed: %v", err)
	}
}

func encodeDump(t testing.TB, d *ShardDump) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteShardFileAtomic: the canonical name only ever holds a
// complete dump — the write goes through a temporary file that the
// merge glob does not match and that is gone afterwards.
func TestWriteShardFileAtomic(t *testing.T) {
	st := shardStudy(t)
	dir := t.TempDir()
	sh := Sharded{Index: 0, Count: 2, Pool: Pool{Parallel: 2}}
	res, err := st.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	// A stale dump under the final name is replaced, never appended to or
	// left half-overwritten.
	path := filepath.Join(dir, ShardFileName(st.Name(), sh))
	if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := res.WriteShardFile(dir, sh); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != filepath.Base(path) {
		t.Fatalf("directory after write = %v, want only %s", names, filepath.Base(path))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := ReadShard(f); err != nil {
		t.Fatalf("dump under the canonical name: %v", err)
	}

	// A failed write leaves neither a dump nor its temporary behind.
	bad := Sharded{Index: 0, Count: 3}
	if _, err := res.WriteShardFile(dir, bad); err == nil {
		t.Fatal("dump for a mismatched partition accepted")
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("failed write left files behind: %v", names)
	}
}
