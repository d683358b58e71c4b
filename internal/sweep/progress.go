package sweep

import (
	"fmt"
	"io"
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

// ProgressMeter aggregates one sweep's progress into a throttled line:
// done/total, completion rate, ETA, variants finished, failures — with
// a per-variant breakdown on the final print. It relies on Run's
// delivery: serialized, with done strictly increasing from 1.
type ProgressMeter struct {
	mu    sync.Mutex
	w     io.Writer
	every time.Duration
	now   func() time.Time // injectable clock for tests

	start     time.Time
	lastPrint time.Time
	failed    int

	// Per-group completion, keyed by variant name (or trace name for
	// unnamed variants), groups in job order.
	groupTotal map[string]int
	groupDone  map[string]int
	groupOrder []string
}

// NewProgressMeter builds a meter over the sweep's jobs writing to w,
// printing at most once per every (<=0 takes the half-second default).
func NewProgressMeter(w io.Writer, every time.Duration, jobs []Job) *ProgressMeter {
	if every <= 0 {
		every = defaultProgressEvery
	}
	m := &ProgressMeter{w: w, every: every, now: time.Now,
		groupTotal: make(map[string]int), groupDone: make(map[string]int)}
	for _, j := range jobs {
		g := j.Group()
		if m.groupTotal[g] == 0 {
			m.groupOrder = append(m.groupOrder, g)
		}
		m.groupTotal[g]++
	}
	return m
}

// Group labels the job's progress bucket: the variant name, or the
// trace name for unnamed variants.
func (j Job) Group() string {
	if j.Variant != "" {
		return j.Variant
	}
	return j.Trace
}

// Progress is the ProgressFunc: feed it to Options.Progress.
func (m *ProgressMeter) Progress(done, total int, jr JobResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if done == 1 {
		// Anchor the rate clock at the first job's start so rate/ETA
		// don't divide by ~zero.
		m.start = now.Add(-jr.Elapsed)
	}
	if jr.Err != nil {
		m.failed++
	}
	m.groupDone[jr.Job.Group()]++

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
	if n := len(m.groupOrder); n > 1 {
		doneGroups := 0
		for _, g := range m.groupOrder {
			if m.groupDone[g] >= m.groupTotal[g] {
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

// printGroups emits the final per-variant completion breakdown in job
// order.
func (m *ProgressMeter) printGroups() {
	if len(m.groupOrder) < 2 {
		return
	}
	for _, g := range m.groupOrder {
		fmt.Fprintf(m.w, "    %-24s %d/%d\n", g, m.groupDone[g], m.groupTotal[g])
	}
}

// CLIProgress is the single -progress hookup shared by the CLIs: nil
// when disabled, otherwise a fresh throttled meter over the sweep's
// jobs.
func CLIProgress(enabled bool, w io.Writer, jobs []Job) ProgressFunc {
	if !enabled {
		return nil
	}
	return NewProgressMeter(w, 0, jobs).Progress
}
