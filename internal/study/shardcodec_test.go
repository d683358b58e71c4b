package study

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sweep"
	"saath/internal/telemetry"
)

// smallDump is a real two-job dump kept small enough to mutate
// exhaustively: one scheduler, two seeds, every telemetry consumer on,
// sampled sparsely.
func smallDump(t testing.TB) []byte {
	t.Helper()
	st, err := New("codec-small",
		WithTraces(tinySource("tiny")),
		WithSchedulers("saath"),
		WithSeeds(1, 2),
		WithTelemetry(telemetry.Spec{
			Enabled: true, Stride: 16, ProgressCoFlows: 1,
			RingCap: 256, ReservoirCap: 256, // the codec's point path
			QueueTransitions: true, PortHeatmap: true,
		}))
	if err != nil {
		t.Fatal(err)
	}
	sh := Sharded{Index: 0, Count: 1, Pool: Pool{Parallel: 2}}
	res, err := st.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteShard(&buf, sh); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oldJSONDump is the head of a dump as builds before the binary format
// wrote it.
const oldJSONDump = "{\n  \"study\": \"codec-small\",\n  \"shard\": 0,\n  \"of\": 1,\n  \"jobs\": 2,\n  \"keys_hash\": \"00\",\n  \"entries\": []\n}\n"

// TestShardCodecTruncatedEverywhere: a dump cut at any length — the
// footprint of a worker killed at any point of its write — is reported
// as truncated, never as some other corruption and never as a dump.
func TestShardCodecTruncatedEverywhere(t *testing.T) {
	dump := smallDump(t)
	if _, err := ReadShard(bytes.NewReader(dump)); err != nil {
		t.Fatalf("intact dump: %v", err)
	}
	for n := 0; n < len(dump); n++ {
		_, err := ReadShard(bytes.NewReader(dump[:n]))
		want := "truncated at byte"
		if n == 0 {
			want = "empty file"
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("dump cut at %d of %d bytes: err = %v, want %q", n, len(dump), err, want)
		}
	}
	if _, err := ReadShard(bytes.NewReader(append(dump[:len(dump):len(dump)], 0))); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("dump with a trailing byte: err = %v", err)
	}
}

// TestShardCodecBitFlips: every single-bit corruption of a dump is
// rejected. CRC-32C detects all of them, so none may decode — and none
// may panic on the way to the checksum.
func TestShardCodecBitFlips(t *testing.T) {
	dump := smallDump(t)
	mut := append([]byte(nil), dump...)
	causes := map[string]int{}
	for i := range mut {
		for bit := 0; bit < 8; bit++ {
			mut[i] ^= 1 << bit
			_, err := ReadShard(bytes.NewReader(mut))
			mut[i] ^= 1 << bit
			if err == nil {
				t.Fatalf("flip of bit %d of byte %d decoded", bit, i)
			}
			for _, c := range []string{"checksum mismatch", "truncated", "invalid encoding", "bad magic", "old-format", "version", "trailer counts"} {
				if strings.Contains(err.Error(), c) {
					causes[c]++
				}
			}
		}
	}
	if causes["checksum mismatch"] == 0 || causes["bad magic"] == 0 {
		t.Errorf("flips never reached the checksum or the magic check: %v", causes)
	}
	t.Logf("%d bytes, causes: %v", len(dump), causes)
}

// TestShardCodecVersionAndFormat: the remaining classified causes.
func TestShardCodecVersionAndFormat(t *testing.T) {
	dump := smallDump(t)
	future := append([]byte(nil), dump...)
	future[len(shardMagic)] = shardVersion + 1
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"old JSON dump", []byte(oldJSONDump), "old-format JSON dump, re-run the shard"},
		{"another file", []byte("PK\x03\x04 not a dump at all"), "bad magic"},
		{"future version", future, fmt.Sprintf("shard format version %d, this build reads version %d", shardVersion+1, shardVersion)},
	} {
		if _, err := ReadShard(bytes.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestShardCodecRoundTrip: what a Summary holds is what a merge
// restores, bit for bit — the values the old text round-trip could only
// approximate or conflate (negative zero, subnormals, nil against empty)
// included.
func TestShardCodecRoundTrip(t *testing.T) {
	// A real run's entries.
	st := shardStudy(t)
	sh := Sharded{Index: 1, Count: 2, Pool: Pool{Parallel: 2}}
	res, err := st.Run(context.Background(), sh)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.ShardDump(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Entries) != 2 || want.Entries[0].Telemetry == nil {
		t.Fatalf("unexpected subject: %d entries", len(want.Entries))
	}
	got, err := ReadShard(bytes.NewReader(encodeDump(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a real dump does not survive the codec unchanged")
	}

	// Hand-built corner values.
	negZero := math.Copysign(0, -1)
	hand := &ShardDump{
		Study: "corner <&> \xff", Shard: 0, Of: 1, Jobs: 4, KeysHash: want.KeysHash,
		Entries: []sweep.Entry{
			{Index: 0, Metrics: sweep.JobMetrics{Trace: "t", Scheduler: "s", Seed: -7, Error: "boom"}},
			{Index: 1,
				Metrics: sweep.JobMetrics{Trace: "t", Variant: "v", Scheduler: "s", Seed: math.MaxInt64,
					CoFlows: 3, Ports: 2, Intervals: 9, AvgCCT: negZero, P50CCT: math.SmallestNonzeroFloat64,
					P90CCT: math.MaxFloat64, Makespan: 1e21, Utilization: 1e-7},
				CCTs:    []float64{negZero, 5e-324, 123456789.125},
				CCTByID: map[coflow.CoFlowID]coflow.Time{3: 1, -1: math.MaxInt64, 0: 0, 1 << 40: -5},
				CoFlows: []sweep.CoFlowRecord{
					{ID: 3, Width: 2, Bytes: math.MaxInt64, SizeDev: negZero, FCTDev: math.SmallestNonzeroFloat64},
					{ID: -1, Width: 0, Bytes: -5, SizeDev: 0.5, FCTDev: 1e300},
				},
				Telemetry: &telemetry.Metrics{
					Intervals: 9, Sampled: 3,
					Series: []telemetry.SeriesDump{
						{Name: "nil points"},
						{Name: "empty points", Unit: "u", Points: []telemetry.Point{}},
						{Name: "points", Count: 2, Mean: negZero, Max: 1, Last: -1,
							Points: []telemetry.Point{{T: 0, V: negZero}, {T: 4.9e-324, V: 1e300}}},
					},
					Histograms: []telemetry.HistogramDump{
						{Name: "nil buckets", Overflow: 4},
						{Name: "buckets", Count: 2, Sum: 3, Max: 2, Buckets: []telemetry.Bucket{{LE: 0, Count: 0}, {LE: 2, Count: 2}}},
					},
					Heatmaps: []telemetry.HeatmapDump{
						{Name: "nil everything"},
						{Name: "h", Bounds: []float64{0, 1}, Intervals: 3, Ports: []telemetry.HeatmapPortDump{
							{Port: 0, Counts: []int64{}, Sum: 1, Max: 1},
							{Port: 1, Counts: []int64{3, 0, -1}, Overflow: 2},
						}},
					},
				}},
			{Index: 2, CCTs: []float64{}, CCTByID: map[coflow.CoFlowID]coflow.Time{}, CoFlows: []sweep.CoFlowRecord{},
				Telemetry: &telemetry.Metrics{Series: []telemetry.SeriesDump{}, Histograms: []telemetry.HistogramDump{}, Heatmaps: []telemetry.HeatmapDump{}}},
		},
	}
	enc := encodeDump(t, hand)
	got, err = ReadShard(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hand) {
		t.Errorf("corner values changed:\n got  %+v\n want %+v", got, hand)
	}
	if v := got.Entries[1].Metrics.AvgCCT; !math.Signbit(v) {
		t.Error("negative zero lost its sign")
	}

	// NaN is not DeepEqual to itself; pin its payload by bits. The codec
	// carries it — only the JSON exporters refuse it.
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	hand.Entries[1].CCTs[0] = nan
	hand.Entries[1].Telemetry.Series[2].Points[0].V = nan
	enc = encodeDump(t, hand)
	got, err = ReadShard(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := math.Float64bits(got.Entries[1].CCTs[0]), math.Float64bits(got.Entries[1].Telemetry.Series[2].Points[0].V); a != math.Float64bits(nan) || b != a {
		t.Errorf("NaN payload changed: %x, %x", a, b)
	}
	if !bytes.Equal(encodeDump(t, got), enc) {
		t.Error("re-encoding a decoded dump changes its bytes")
	}

	// Dump bytes are a pure function of the dump: map order never shows.
	for i := 0; i < 20; i++ {
		if !bytes.Equal(encodeDump(t, hand), enc) {
			t.Fatal("encoding the same dump twice gave different bytes")
		}
	}
}

// TestShardCodecRejectsNonCanonical: a second encoding of the same
// value is not a second way to write a dump.
func TestShardCodecRejectsNonCanonical(t *testing.T) {
	dump := &ShardDump{Study: "s", Of: 1, Jobs: 1, KeysHash: strings.Repeat("ab", 32),
		Entries: []sweep.Entry{{CCTByID: map[coflow.CoFlowID]coflow.Time{1: 10, 2: 20}}}}
	enc := encodeDump(t, dump)
	// Swap the two (id, time) pairs — ids 1 and 2 are the varints 0x02,
	// 0x04 followed by 0x14, 0x28 — and fix the checksum up.
	at := bytes.Index(enc, []byte{0x02, 0x14, 0x04, 0x28})
	if at < 0 {
		t.Fatal("cct_by_id pairs not found in the encoding")
	}
	copy(enc[at:], []byte{0x04, 0x28, 0x02, 0x14})
	if _, err := ReadShard(bytes.NewReader(fixChecksum(enc))); err == nil || !strings.Contains(err.Error(), "invalid encoding") {
		t.Errorf("descending cct_by_id ids: err = %v", err)
	}
}

// fixChecksum returns b with its last four bytes replaced by the
// CRC-32C of the rest, so mutations reach the code behind the checksum.
func fixChecksum(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	out := append([]byte(nil), b...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, crc32c))
	return out
}

// TestShardSeedCorpusDecodes pins the format version: the dump committed
// as the fuzz seed must keep decoding. A change to the encoding that
// breaks it needs a shardVersion bump (and a regenerated seed), not a
// silent reinterpretation of dumps already on disk.
func TestShardSeedCorpusDecodes(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "two-job.shard"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadShard(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("committed version-%d dump no longer decodes: %v", shardVersion, err)
	}
	if len(d.Entries) != 2 || d.Entries[1].Telemetry == nil || !bytes.Equal(encodeDump(t, d), b) {
		t.Errorf("committed dump decodes to %d entries or re-encodes differently", len(d.Entries))
	}
}

// FuzzReadShard: any input is either rejected or decodes to a dump that
// passes shape() and re-encodes to exactly the input — one encoding per
// dump — and either way the reader allocates in proportion to the input
// (no length prefix is trusted beyond the bytes that follow it). Every
// input is also tried with its checksum fixed up, so mutations explore
// the decoder rather than dying at the CRC, and read both through a
// reader that tells its length and one that hides it. The committed corpus under
// testdata/fuzz holds a real dump, truncations of it and an old JSON
// dump.
func FuzzReadShard(f *testing.F) {
	dump := smallDump(f)
	f.Add(dump)
	f.Add(dump[:len(dump)/3])
	f.Add([]byte(oldJSONDump))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, fixChecksum(data)} {
			// Both read paths: a reader that tells its length (the
			// buffer is sized up front) and one that hides it.
			for _, rd := range []io.Reader{bytes.NewReader(in), struct{ io.Reader }{bytes.NewReader(in)}} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				d, err := ReadShard(rd)
				runtime.ReadMemStats(&after)
				if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+1<<20); got > limit {
					t.Fatalf("reading %d bytes through %T allocated %d (limit %d)", len(in), rd, got, limit)
				}
				if err != nil {
					continue
				}
				if err := d.shape(); err != nil {
					t.Fatalf("accepted dump fails shape(): %v", err)
				}
				if !bytes.Equal(encodeDump(t, d), in) {
					t.Fatal("accepted dump re-encodes to different bytes")
				}
			}
		}
	})
}

// filler sets every field under a value from rng: each scalar
// non-zero and each pointer set. In full mode each list and map holds
// one to three elements; otherwise a list comes out nil, empty or full
// at random, and nils and empties count those.
type filler struct {
	rng           *rand.Rand
	full          bool
	nils, empties int
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		x := int64(f.rng.Uint64()>>f.rng.IntN(64)) | 1
		if f.rng.IntN(2) == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Float64:
		x := math.Float64frombits(f.rng.Uint64())
		if math.IsNaN(x) || x == 0 { // NaN is never DeepEqual to itself
			x = 0.5
		}
		v.SetFloat(x)
	case reflect.String:
		b := make([]byte, 1+f.rng.IntN(8))
		for i := range b {
			b[i] = byte(f.rng.Uint32())
		}
		v.SetString(string(b))
	case reflect.Struct:
		for i := range v.NumField() {
			f.fill(v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice, reflect.Map:
		n := 1 + f.rng.IntN(3)
		if !f.full {
			switch f.rng.IntN(3) {
			case 0:
				f.nils++
				return
			case 1:
				f.empties++
				n = 0
			}
		}
		if v.Kind() == reflect.Slice {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := range n {
				f.fill(v.Index(i))
			}
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		k, x := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		for v.Len() < n {
			f.fill(k)
			f.fill(x)
			v.SetMapIndex(k, x)
		}
	default:
		panic("filler: no rule for " + v.Type().String())
	}
}

// requireFilled fails unless every field under v is non-zero and every
// list under it non-empty.
func requireFilled(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	if v.IsZero() || (v.Kind() == reflect.Slice || v.Kind() == reflect.Map) && v.Len() == 0 {
		t.Fatalf("%s is zero or empty", path)
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			requireFilled(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Pointer:
		requireFilled(t, v.Elem(), path)
	case reflect.Slice:
		for i := range v.Len() {
			requireFilled(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	}
}

// TestShardCodecRandomRoundTrip: the walk carries whatever the carried
// structs hold. Every field is filled by reflection — so a field added
// to any of them is covered with no edit here — half the entries with
// every field non-zero and every list full, the rest with nil, empty
// and full lists mixed. The dump reads back DeepEqual and re-encodes to
// the same bytes.
func TestShardCodecRandomRoundTrip(t *testing.T) {
	for seed := range uint64(8) {
		f := &filler{rng: rand.New(rand.NewPCG(seed, 58))}
		dump := &ShardDump{Study: "random", Of: 1, Jobs: 32, KeysHash: strings.Repeat("ab", 32)}
		for i := range dump.Jobs {
			var en sweep.Entry
			f.full = i%2 == 0
			f.fill(reflect.ValueOf(&en).Elem())
			if f.full {
				requireFilled(t, reflect.ValueOf(en), "Entry")
			}
			en.Index = i
			dump.Entries = append(dump.Entries, en)
		}
		if f.nils == 0 || f.empties == 0 {
			t.Fatalf("seed %d: %d nil and %d empty lists, want both", seed, f.nils, f.empties)
		}
		enc := encodeDump(t, dump)
		got, err := ReadShard(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, dump) {
			t.Fatalf("seed %d: the dump does not survive the codec unchanged", seed)
		}
		if !bytes.Equal(encodeDump(t, got), enc) {
			t.Fatalf("seed %d: re-encoding the decoded dump changes its bytes", seed)
		}
	}
}

// shardLayouts records, per shardVersion, what the codec walks: every
// field under sweep.Entry in declaration order, with its kind. A
// recorded layout is never edited. A change to a carried struct bumps
// shardVersion, regenerates testdata/two-job.shard and the FuzzReadShard
// corpus, and records the new layout under the new version.
var shardLayouts = map[int]string{
	2: `Entry.Index int
Entry.Metrics.Trace string
Entry.Metrics.Variant string
Entry.Metrics.Scheduler string
Entry.Metrics.Seed int64
Entry.Metrics.Error string
Entry.Metrics.CoFlows int
Entry.Metrics.Ports int
Entry.Metrics.Intervals int
Entry.Metrics.AvgCCT float64
Entry.Metrics.P50CCT float64
Entry.Metrics.P90CCT float64
Entry.Metrics.Makespan float64
Entry.Metrics.Utilization float64
Entry.CCTs slice
Entry.CCTs[] float64
Entry.CCTByID map[int64]int64
Entry.CoFlows slice
Entry.CoFlows[].ID int64
Entry.CoFlows[].Width int
Entry.CoFlows[].Bytes int64
Entry.CoFlows[].SizeDev float64
Entry.CoFlows[].FCTDev float64
Entry.Telemetry pointer
Entry.Telemetry.Intervals int64
Entry.Telemetry.Sampled int64
Entry.Telemetry.Series slice
Entry.Telemetry.Series[].Name string
Entry.Telemetry.Series[].Unit string
Entry.Telemetry.Series[].Count int64
Entry.Telemetry.Series[].Mean float64
Entry.Telemetry.Series[].Max float64
Entry.Telemetry.Series[].Last float64
Entry.Telemetry.Series[].Points slice
Entry.Telemetry.Series[].Points[].T float64
Entry.Telemetry.Series[].Points[].V float64
Entry.Telemetry.Histograms slice
Entry.Telemetry.Histograms[].Name string
Entry.Telemetry.Histograms[].Count int64
Entry.Telemetry.Histograms[].Sum float64
Entry.Telemetry.Histograms[].Max float64
Entry.Telemetry.Histograms[].Buckets slice
Entry.Telemetry.Histograms[].Buckets[].LE float64
Entry.Telemetry.Histograms[].Buckets[].Count int64
Entry.Telemetry.Histograms[].Overflow int64
Entry.Telemetry.Heatmaps slice
Entry.Telemetry.Heatmaps[].Name string
Entry.Telemetry.Heatmaps[].Bounds slice
Entry.Telemetry.Heatmaps[].Bounds[] float64
Entry.Telemetry.Heatmaps[].Intervals int64
Entry.Telemetry.Heatmaps[].Ports slice
Entry.Telemetry.Heatmaps[].Ports[].Port int
Entry.Telemetry.Heatmaps[].Ports[].Counts slice
Entry.Telemetry.Heatmaps[].Ports[].Counts[] int64
Entry.Telemetry.Heatmaps[].Ports[].Overflow int64
Entry.Telemetry.Heatmaps[].Ports[].Sum int64
Entry.Telemetry.Heatmaps[].Ports[].Max int64
`,
}

// TestShardLayoutPinned: a carried struct cannot change under a
// shardVersion that dumps on disk were written with.
func TestShardLayoutPinned(t *testing.T) {
	var b strings.Builder
	shardLayout(&b, "Entry", reflect.TypeFor[sweep.Entry]())
	if want, ok := shardLayouts[shardVersion]; !ok || b.String() != want {
		t.Errorf("the structs the shard codec carries no longer match the layout recorded for version %d: "+
			"bump shardVersion, regenerate testdata/two-job.shard and the fuzz corpus, and record this layout under the new version:\n%s",
			shardVersion, b.String())
	}
}

// shardLayout writes one line per value the walk meets under t: its
// path and kind.
func shardLayout(b *strings.Builder, path string, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			shardLayout(b, path+"."+t.Field(i).Name, t.Field(i).Type)
		}
	case reflect.Slice:
		fmt.Fprintf(b, "%s slice\n", path)
		shardLayout(b, path+"[]", t.Elem())
	case reflect.Pointer:
		fmt.Fprintf(b, "%s pointer\n", path)
		shardLayout(b, path, t.Elem())
	case reflect.Map:
		fmt.Fprintf(b, "%s map[%s]%s\n", path, t.Key().Kind(), t.Elem().Kind())
	default:
		fmt.Fprintf(b, "%s %s\n", path, t.Kind())
	}
}
