package saath

// Fleet wire-protocol benchmarks and allocation guards. The wire layer
// sits on the driver's hot loop — every worker event (one per finished
// job, plus hello/dump framing) is encoded by the worker and decoded by
// the driver — so its cost contract is explicit: encoding a progress
// event allocates exactly nothing at steady state (pooled encoder
// machinery), and decoding one stays within 1.25x of the allocations
// recorded in BENCH_baseline.json's fleet_layer section
// (bench_guards_test.go).

import (
	"bytes"
	"io"
	"testing"

	"saath/internal/fleet"
)

// benchProgressEvent is one mid-shard progress event, the dominant
// event kind on the wire (one per completed job).
func benchProgressEvent() *fleet.Event {
	return &fleet.Event{
		Type: fleet.EventProgress,
		Progress: &fleet.Progress{
			Index: 17, Key: "trace=fb-tiny sched=saath seed=3", Group: "fb-tiny",
			Done: 2, Total: 3, ElapsedNs: 1234567,
		},
	}
}

// encodeProgressStream writes n progress events the way a worker does.
func encodeProgressStream(n int) []byte {
	var buf bytes.Buffer
	ev := benchProgressEvent()
	for i := 0; i < n; i++ {
		if err := fleet.WriteEvent(&buf, ev); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// BenchmarkFleetWireEncode measures one worker-side event emission.
func BenchmarkFleetWireEncode(b *testing.B) {
	ev := benchProgressEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fleet.WriteEvent(io.Discard, ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetWireDecode measures the driver-side steady state: one
// long-lived EventReader pulling events off a worker stream.
func BenchmarkFleetWireDecode(b *testing.B) {
	stream := encodeProgressStream(4096)
	rd := fleet.NewEventReader(bytes.NewReader(stream))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := rd.Next()
		if err == io.EOF {
			rd = fleet.NewEventReader(bytes.NewReader(stream))
			ev, err = rd.Next()
		}
		if err != nil {
			b.Fatal(err)
		}
		if ev.Type != fleet.EventProgress {
			b.Fatalf("decoded %q, want progress", ev.Type)
		}
	}
}
