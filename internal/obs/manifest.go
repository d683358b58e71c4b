package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// JobRecord is one job's observability digest: identity, phase span
// tree, engine counters, and the error string on failure. Records live
// only in the manifest — never in the deterministic study exports.
type JobRecord struct {
	Index     int             `json:"index"`
	Trace     string          `json:"trace"`
	Variant   string          `json:"variant,omitempty"`
	Scheduler string          `json:"scheduler"`
	Seed      int64           `json:"seed"`
	Error     string          `json:"error,omitempty"`
	Span      *Span           `json:"span,omitempty"`
	Counters  *EngineCounters `json:"counters,omitempty"`
	// Runtime is a testbed job's coordinator measurement, nil for a
	// simulator job; the manifest lists it under Manifest.Runtime.
	Runtime *RuntimeRecord `json:"-"`
}

// ManifestTotals aggregates the run: job counts, summed job wall-clock
// (JobNs exceeds real elapsed time under parallelism — it is CPU-side
// work, not wall time), and counters merged across every job.
type ManifestTotals struct {
	Jobs     int            `json:"jobs"`
	Failed   int            `json:"failed,omitempty"`
	JobNs    int64          `json:"job_ns"`
	Counters EngineCounters `json:"counters"`
}

// Manifest is one run's collected observability: per-job records in
// grid order and the aggregate totals.
type Manifest struct {
	Study  string         `json:"study,omitempty"`
	Jobs   []JobRecord    `json:"jobs"`
	Totals ManifestTotals `json:"totals"`
	// Runtime is the testbed jobs' coordinator measurements
	// (schedule latency, admission counts) when the run went through
	// the real coordinator. Absent on simulator-backed runs.
	Runtime *RuntimeReport `json:"runtime,omitempty"`
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Recorder is the thread-safe collection point the sweep layer feeds:
// workers record one JobRecord per job, Manifest snapshots everything.
// A nil *Recorder is the disabled state — every method is a nil-safe
// no-op, so call sites thread one pointer through unconditionally.
type Recorder struct {
	mu    sync.Mutex
	study string
	jobs  []JobRecord
}

// NewRecorder returns an enabled recorder labeled with the study name.
func NewRecorder(study string) *Recorder {
	return &Recorder{study: study}
}

// Enabled reports whether records will be kept (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// RecordJob stores one job's digest. Safe for concurrent use; no-op on
// a disabled recorder.
func (r *Recorder) RecordJob(rec JobRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.jobs = append(r.jobs, rec)
	r.mu.Unlock()
}

// Manifest snapshots the collected state: job records sorted by grid
// index (arrival order is execution interleaving; the manifest is not
// byte-pinned, but grid order keeps it stable enough to diff), totals
// summed across jobs.
func (r *Recorder) Manifest() *Manifest {
	if r == nil {
		return &Manifest{}
	}
	r.mu.Lock()
	jobs := append([]JobRecord(nil), r.jobs...)
	study := r.study
	r.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Index < jobs[j].Index })
	m := &Manifest{Study: study, Jobs: jobs}
	m.Totals.Jobs = len(jobs)
	for i := range jobs {
		j := &jobs[i]
		if j.Runtime != nil {
			if m.Runtime == nil {
				m.Runtime = &RuntimeReport{}
			}
			m.Runtime.Records = append(m.Runtime.Records, *j.Runtime)
		}
		if j.Error != "" {
			m.Totals.Failed++
		}
		m.Totals.JobNs += j.Span.Duration().Nanoseconds()
		m.Totals.Counters.Merge(j.Counters)
	}
	return m
}
