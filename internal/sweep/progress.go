package sweep

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// ProgressFunc is the sweep progress callback: invoked serialized
// after every completed job with the completion count so far.
// Completion order is nondeterministic under parallelism — progress is
// presentation only and never feeds aggregated output.
type ProgressFunc func(done, total int, jr JobResult)

// defaultProgressEvery throttles the aggregate progress line.
const defaultProgressEvery = 500 * time.Millisecond

// ProgressMeter aggregates sweep progress into a throttled line:
// done/total, completion rate, ETA, variants finished, failures — with
// a per-variant breakdown on the final print. One meter serves one
// sweep at a time; a reused meter resets itself when a new sweep's
// first job completes. It relies on Run's delivery: serialized, with
// done strictly increasing from 1.
type ProgressMeter struct {
	mu    sync.Mutex
	w     io.Writer
	every time.Duration
	now   func() time.Time // injectable clock for tests

	start     time.Time
	lastPrint time.Time
	failed    int

	// Per-group completion, keyed by variant name (or trace name for
	// unnamed variants), in first-seen job order.
	groupTotal map[string]int
	groupDone  map[string]int
	groupOrder []string
}

// NewProgressMeter builds a meter writing to w, printing at most once
// per every (<=0 takes the half-second default).
func NewProgressMeter(w io.Writer, every time.Duration) *ProgressMeter {
	if every <= 0 {
		every = defaultProgressEvery
	}
	return &ProgressMeter{w: w, every: every, now: time.Now}
}

// Group labels the job's progress bucket: the variant name, or the
// trace name for unnamed variants.
func (j Job) Group() string {
	if j.Variant != "" {
		return j.Variant
	}
	return j.Trace
}

// SetJobs precomputes the per-variant totals from the sweep's job
// list, enabling the "variants m/n" column and the final breakdown.
// Optional: without it the meter learns groups as jobs complete and
// reports no group totals.
func (m *ProgressMeter) SetJobs(jobs []Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.groupTotal = make(map[string]int)
	m.groupDone = make(map[string]int)
	m.groupOrder = nil
	for _, j := range jobs {
		g := j.Group()
		if m.groupTotal[g] == 0 {
			m.groupOrder = append(m.groupOrder, g)
		}
		m.groupTotal[g]++
	}
}

// Progress is the ProgressFunc: feed it to Options.Progress.
func (m *ProgressMeter) Progress(done, total int, jr JobResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if done == 1 {
		// First completion of a (possibly re-run) sweep: anchor the rate
		// clock at the job's start so rate/ETA don't divide by ~zero.
		m.start = now.Add(-jr.Elapsed)
		m.lastPrint = time.Time{}
		m.failed = 0
		for g := range m.groupDone {
			delete(m.groupDone, g)
		}
	}
	if jr.Err != nil {
		m.failed++
	}
	if m.groupDone == nil {
		m.groupDone = make(map[string]int)
	}
	group := jr.Job.Group()
	if m.groupTotal[group] == 0 && m.groupDone[group] == 0 {
		m.groupOrder = append(m.groupOrder, group)
	}
	m.groupDone[group]++

	final := done >= total
	if !final && !m.lastPrint.IsZero() && now.Sub(m.lastPrint) < m.every {
		return
	}
	m.lastPrint = now
	m.printLine(done, total, now)
	if final {
		m.printGroups()
	}
}

func (m *ProgressMeter) printLine(done, total int, now time.Time) {
	elapsed := now.Sub(m.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %d/%d jobs (%d%%)", done, total, 100*done/max(total, 1))
	fmt.Fprintf(&b, " | %.1f jobs/s", rate)
	if done < total && rate > 0 {
		eta := time.Duration(float64(total-done) / rate * float64(time.Second))
		fmt.Fprintf(&b, " | eta %s", eta.Round(time.Second))
	}
	if n := len(m.groupTotal); n > 1 {
		doneGroups := 0
		//saath:order-independent counting completed groups is commutative
		for g, t := range m.groupTotal {
			if m.groupDone[g] >= t {
				doneGroups++
			}
		}
		fmt.Fprintf(&b, " | variants %d/%d", doneGroups, n)
	}
	if m.failed > 0 {
		fmt.Fprintf(&b, " | failed %d", m.failed)
	}
	fmt.Fprintln(m.w, b.String())
}

// printGroups emits the final per-variant completion breakdown in
// stable first-seen order.
func (m *ProgressMeter) printGroups() {
	if len(m.groupOrder) < 2 {
		return
	}
	order := m.groupOrder
	if len(m.groupTotal) == 0 {
		// Groups learned on the fly arrive in completion order; sort for
		// a stable final report.
		order = append([]string(nil), m.groupOrder...)
		sort.Strings(order)
	}
	for _, g := range order {
		total := m.groupTotal[g]
		if total == 0 {
			total = m.groupDone[g]
		}
		fmt.Fprintf(m.w, "    %-24s %d/%d\n", g, m.groupDone[g], total)
	}
}

// CLIProgress is the single -progress hookup shared by the CLIs: nil
// when disabled, otherwise a throttled aggregate meter over the
// sweep's jobs (pass nil jobs when the list is not known up front).
func CLIProgress(enabled bool, w io.Writer, jobs []Job) ProgressFunc {
	if !enabled {
		return nil
	}
	m := NewProgressMeter(w, 0)
	if len(jobs) > 0 {
		m.SetJobs(jobs)
	}
	return m.Progress
}
