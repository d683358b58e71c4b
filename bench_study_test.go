package saath

// Study-layer microbenchmark and allocation guard: one shard dump
// encoded and read back through the shard codec
// (internal/study/shardcodec.go), the per-shard cost a sharded study
// pays on each side of a merge. BENCH_baseline.json's "study_layer"
// section records its allocations; the guard table
// (bench_guards_test.go) holds the codec to 1.25x of that record.

import (
	"bytes"
	"context"
	"testing"

	"saath/internal/study"
)

// benchShardDump is a four-job dump with every telemetry consumer on
// and points kept, so each rule of the codec's walk carries data.
func benchShardDump(tb testing.TB) *study.ShardDump {
	tb.Helper()
	st, err := NewStudy("bench-shard",
		WithTraces(benchSweepSource("bench-a")),
		WithSchedulers("aalo", "saath"),
		WithSeeds(1, 2),
		WithTelemetry(TelemetrySpec{
			Enabled: true, Stride: 4, RingCap: 64, ReservoirCap: 64, ProgressCoFlows: 2,
			QueueTransitions: true, PortHeatmap: true,
		}))
	if err != nil {
		tb.Fatal(err)
	}
	sh := StudySharded{Index: 0, Count: 1, Pool: StudyPool{Parallel: 1}}
	res, err := st.Run(context.Background(), sh)
	if err != nil {
		tb.Fatal(err)
	}
	dump, err := res.ShardDump(sh)
	if err != nil {
		tb.Fatal(err)
	}
	return dump
}

// benchShardRoundTrip returns one round trip of the dump: encoded into
// a reused buffer, then read back.
func benchShardRoundTrip(tb testing.TB) func() {
	dump := benchShardDump(tb)
	var buf bytes.Buffer
	return func() {
		buf.Reset()
		if err := dump.Encode(&buf); err != nil {
			tb.Fatal(err)
		}
		if _, err := study.ReadShard(bytes.NewReader(buf.Bytes())); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkShardCodec measures the dump's encoding and its reading
// apart.
func BenchmarkShardCodec(b *testing.B) {
	dump := benchShardDump(b)
	var buf bytes.Buffer
	if err := dump.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		var out bytes.Buffer
		b.ReportAllocs()
		b.SetBytes(int64(buf.Len()))
		for range b.N {
			out.Reset()
			if err := dump.Encode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(buf.Len()))
		for range b.N {
			if _, err := study.ReadShard(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
