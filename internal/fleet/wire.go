// Package fleet distributes a registered study across worker
// processes. A driver partitions the grid into striped shards
// (internal/study's i/n sharding), launches them behind a pluggable
// Backend, and streams results back over each worker's stdout instead
// of shard files. The driver owns robustness: per-attempt deadlines,
// event-stream liveness, bounded deterministic-backoff retry,
// re-queueing a dead worker's shard onto surviving slots, and grid
// fingerprint validation that rejects drifted results before they can
// poison a merge. The merged output is byte-identical to a
// single-process run — retries and chaos leave traces only in the obs
// fleet report, never in study bytes.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"saath/internal/obs"
)

// WireVersion stamps every event; a reader rejects mismatched streams
// rather than guessing at field semantics. Version 2 carries the shard
// dump as the study package's binary codec instead of nested JSON.
const WireVersion = 2

// EventType discriminates wire events.
type EventType string

const (
	// EventHello is the worker's first event: the shard identity it is
	// about to run, including the grid fingerprint it computed — the
	// driver kills a drifted worker here, before it wastes the shard.
	EventHello EventType = "hello"
	// EventProgress reports one completed job.
	EventProgress EventType = "progress"
	// EventDump carries the finished shard's dump and obs totals; it is
	// the worker's last event and the driver's success criterion.
	EventDump EventType = "dump"
	// EventError reports a fatal worker-side failure.
	EventError EventType = "error"
)

// Hello announces the shard a worker is about to run.
type Hello struct {
	Study string `json:"study"`
	Shard int    `json:"shard"`
	Of    int    `json:"of"`
	// Jobs is this shard's job count; Grid the full grid size.
	Jobs        int    `json:"jobs"`
	Grid        int    `json:"grid"`
	Fingerprint string `json:"fingerprint"`
}

// Progress reports one completed job within a shard.
type Progress struct {
	// Index is the job's grid index — the driver dedups on it, so a
	// retried shard replaying completions never double-counts.
	Index int    `json:"index"`
	Key   string `json:"key"`
	// Group is the job's progress bucket (sweep.Job.Group) for the
	// driver-side aggregate meter.
	Group string `json:"group"`
	// Done/Total count within this shard.
	Done      int    `json:"done"`
	Total     int    `json:"total"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Error     string `json:"error,omitempty"`
}

// Dump is the worker's final payload: the mergeable shard dump plus
// the shard's obs totals (engine counters, schedule-latency histogram)
// for the fleet report.
type Dump struct {
	// Dump is the shard dump exactly as Result.WriteShard writes it to a
	// file (base64 inside the JSON envelope); study.ReadShard decodes it,
	// checksum and shape checks included.
	Dump   []byte             `json:"dump"`
	Totals obs.ManifestTotals `json:"totals"`
}

// Event is the newline-delimited JSON envelope on a worker's stdout.
// Exactly one payload field is set, matching Type.
type Event struct {
	V        int       `json:"v"`
	Type     EventType `json:"type"`
	Hello    *Hello    `json:"hello,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	Dump     *Dump     `json:"dump,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// WriteEvent stamps and emits one event as a single JSON line.
func WriteEvent(w io.Writer, ev *Event) error {
	ev.V = WireVersion
	return json.NewEncoder(w).Encode(ev)
}

// EventReader decodes a worker's event stream.
type EventReader struct {
	dec *json.Decoder
}

// NewEventReader wraps a worker's stdout.
func NewEventReader(r io.Reader) *EventReader {
	return &EventReader{dec: json.NewDecoder(r)}
}

// Next returns the next event, io.EOF at clean end of stream, or a
// descriptive error on a corrupt or version-skewed stream.
func (r *EventReader) Next() (*Event, error) {
	var ev Event
	if err := r.dec.Decode(&ev); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("fleet: corrupt event stream: %w", err)
	}
	if ev.V != WireVersion {
		return nil, fmt.Errorf("fleet: wire version %d, this driver speaks %d", ev.V, WireVersion)
	}
	if ev.Type == "" {
		return nil, fmt.Errorf("fleet: event missing type")
	}
	return &ev, nil
}
