package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/report"
	"saath/internal/sim"
	"saath/internal/stats"
	"saath/internal/telemetry"
)

// JobMetrics is the deterministic per-job digest the Summary keeps:
// only simulation outcomes, never wall-clock measurements, so encoded
// summaries are byte-identical across worker counts and machines.
type JobMetrics struct {
	Trace       string  `json:"trace"`
	Variant     string  `json:"variant,omitempty"`
	Scheduler   string  `json:"scheduler"`
	Seed        int64   `json:"seed"`
	Error       string  `json:"error,omitempty"`
	CoFlows     int     `json:"coflows"`
	Ports       int     `json:"ports,omitempty"`
	Intervals   int     `json:"intervals"`
	AvgCCT      float64 `json:"avg_cct_s"`
	P50CCT      float64 `json:"p50_cct_s"`
	P90CCT      float64 `json:"p90_cct_s"`
	Makespan    float64 `json:"makespan_s"`
	Utilization float64 `json:"avg_egress_utilization"`
}

// Entry is one job's digest, the one shape the Summary keeps it in and
// a shard dump carries it in. CCTs holds per-CoFlow completion times
// in simulation-result order (order matters: pooled means accumulate
// floats in this order, so a restored Summary reproduces table bytes
// exactly); CCTByID keys the same values by CoFlow for cross-scheduler
// speedup matching, in exact integer microseconds; CoFlows is the
// per-coflow shape column in the same result order. A sharded study
// run exports its entries and a merge restores them — see
// internal/study.
type Entry struct {
	Index     int
	Metrics   JobMetrics
	CCTs      []float64
	CCTByID   map[coflow.CoFlowID]coflow.Time
	CoFlows   []CoFlowRecord
	Telemetry *telemetry.Metrics
}

// CoFlowRecord is one coflow's shape and out-of-sync digest, taken
// from the simulation result: the per-coflow column the paper's
// trace-shape and per-bin figures (Figs 2, 11, 12, 13) are derived
// from. It never enters the JSON exports.
type CoFlowRecord struct {
	ID    coflow.CoFlowID
	Width int          // flow count
	Bytes coflow.Bytes // total size
	// SizeDev is the normalized stddev of the flow sizes (Fig 2b, and
	// with Width the coflow's trace.ClassOf).
	SizeDev float64
	// FCTDev is the normalized stddev of the flows' completion times
	// (each flow's DoneAt − the coflow's Arrival), the out-of-sync
	// metric of Figs 2c and 13; 0 for a single flow.
	FCTDev float64
}

// coflowRecords digests r's coflows into the per-coflow column, in
// result order, with xs as scratch; it returns the scratch for reuse.
func coflowRecords(r *sim.Result, xs []float64) ([]CoFlowRecord, []float64) {
	out := make([]CoFlowRecord, len(r.CoFlows))
	for i := range r.CoFlows {
		c := &r.CoFlows[i]
		rec := CoFlowRecord{ID: c.ID, Width: c.Width, Bytes: c.Bytes}
		xs = xs[:0]
		for _, f := range c.Flows {
			xs = append(xs, float64(f.Size))
		}
		rec.SizeDev = stats.NormStdDev(xs)
		if len(c.Flows) > 1 {
			xs = xs[:0]
			for _, f := range c.Flows {
				xs = append(xs, (f.DoneAt - c.Arrival).Seconds())
			}
			rec.FCTDev = stats.NormStdDev(xs)
		}
		out[i] = rec
	}
	return out, xs
}

// Summary is a thread-safe Collector that aggregates sweep results
// into CCT/utilization tables, speedup-vs-baseline distributions and a
// JSON export. All derived output iterates jobs in grid-index order,
// so it is independent of execution interleaving.
//
// Every table pools by cell: the jobs sharing a trace, variant and
// scheduler, whatever their seeds. A table keeps the jobs it can read
// (completed ones, or those carrying its telemetry); each cell's row
// sits at the grid position of its first kept job.
type Summary struct {
	mu      sync.Mutex
	entries map[int]*Entry // by grid index
	scratch []float64      // coflowRecords' buffer, reused across Add calls
}

// NewSummary returns an empty Summary.
func NewSummary() *Summary {
	return &Summary{entries: make(map[int]*Entry)}
}

// Add digests one completed job. Safe for concurrent use.
func (s *Summary) Add(jr JobResult) {
	e := &Entry{Index: jr.Job.Index, Metrics: JobMetrics{
		Trace:     jr.Job.Trace,
		Variant:   jr.Job.Variant,
		Scheduler: jr.Job.Scheduler,
		Seed:      jr.Job.Seed,
	}}
	if jr.Err != nil {
		e.Metrics.Error = jr.Err.Error()
	} else if r := jr.Res; r != nil {
		e.CCTs = make([]float64, len(r.CoFlows))
		for i, c := range r.CoFlows {
			e.CCTs[i] = c.CCT.Seconds()
		}
		e.CCTByID = r.CCTByID()
		e.Metrics.CoFlows = len(r.CoFlows)
		e.Metrics.Ports = r.Ports
		e.Metrics.Intervals = r.Intervals
		e.Metrics.AvgCCT = r.AvgCCT()
		sorted := append([]float64(nil), e.CCTs...) // e.CCTs keeps result order
		sort.Float64s(sorted)
		e.Metrics.P50CCT = stats.Percentile(sorted, 50)
		e.Metrics.P90CCT = stats.Percentile(sorted, 90)
		e.Metrics.Makespan = r.Makespan.Seconds()
		e.Metrics.Utilization = r.AvgEgressUtilization
	}
	e.Telemetry = jr.Metrics
	s.mu.Lock()
	if jr.Err == nil && jr.Res != nil {
		e.CoFlows, s.scratch = coflowRecords(jr.Res, s.scratch)
	}
	s.entries[jr.Job.Index] = e
	s.mu.Unlock()
}

// Entries snapshots every digested job in grid order. The snapshot
// shares slices and maps with the Summary; callers must not mutate it.
func (s *Summary) Entries() []Entry {
	sorted := s.sorted()
	out := make([]Entry, len(sorted))
	for i, e := range sorted {
		out[i] = *e
	}
	return out
}

// Restore inserts previously-exported entries, keyed by their grid
// index — the merge half of the shard workflow. It refuses to
// overwrite an already-present index, so merging overlapping shards
// fails loudly instead of silently double-counting.
func (s *Summary) Restore(entries ...Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if e.Index < 0 {
			return fmt.Errorf("sweep: restore: negative job index %d", e.Index)
		}
		if _, dup := s.entries[e.Index]; dup {
			return fmt.Errorf("sweep: restore: duplicate job index %d (%s|%s|%d|%s)",
				e.Index, e.Metrics.Trace, e.Metrics.Variant, e.Metrics.Seed, e.Metrics.Scheduler)
		}
		s.entries[e.Index] = &e
	}
	return nil
}

// Len returns the number of digested jobs.
func (s *Summary) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// sorted returns the entries in grid order.
func (s *Summary) sorted() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := make([]int, 0, len(s.entries))
	for i := range s.entries {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]*Entry, len(idx))
	for i, j := range idx {
		out[i] = s.entries[j]
	}
	return out
}

// Metrics returns every job's digest in grid order.
func (s *Summary) Metrics() []JobMetrics {
	entries := s.sorted()
	out := make([]JobMetrics, len(entries))
	for i, e := range entries {
		out[i] = e.Metrics
	}
	return out
}

// WriteJSON exports the per-job metrics as {"jobs": [...]}: the bytes
// encoding/json gives for them, streamed a job at a time (writeJobs).
// Output is deterministic for a given grid.
func (s *Summary) WriteJSON(w io.Writer) error {
	return writeJobs(w, s.Metrics())
}

// writeJobs writes {"jobs": jobs} byte for byte as an Encoder with
// SetIndent("", "  ") writes the whole document, without holding it
// in memory: the envelope by hand, each job through one reused Encoder
// whose prefix puts it at its depth. Every job is first encoded to
// io.Discard, so an unsupported value (NaN, ±Inf) fails with
// encoding/json's error before a byte is written, as Encode does.
func writeJobs[T any](w io.Writer, jobs []T) error {
	check := json.NewEncoder(io.Discard)
	for i := range jobs {
		if err := check.Encode(&jobs[i]); err != nil {
			return err
		}
	}
	if len(jobs) == 0 {
		list, _ := json.Marshal(jobs) // null or []; an empty list cannot fail
		_, err := fmt.Fprintf(w, "{\n  \"jobs\": %s\n}\n", list)
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("    ", "  ")
	buf.WriteString("{\n  \"jobs\": [\n    ")
	for i := range jobs {
		if i > 0 {
			buf.WriteString(",\n    ")
		}
		if err := enc.Encode(&jobs[i]); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()[:buf.Len()-1]); err != nil { // less Encode's newline
			return err
		}
		buf.Reset()
	}
	_, err := io.WriteString(w, "\n  ]\n}\n")
	return err
}

// cellKey names one pooled cell: the jobs sharing a trace, variant
// and scheduler, whatever their seeds. A struct, so names may hold any
// byte, "|" included.
type cellKey struct{ trace, variant, scheduler string }

// label renders the cell's workload column (obs.WorkloadLabel).
func (k cellKey) label() string { return obs.WorkloadLabel(k.trace, k.variant) }

// group is one cell's kept entries, in grid order.
type group struct {
	cellKey
	entries []*Entry
}

// groups pools the entries keep accepts by cell, cells and entries in
// grid order: the one grouping every table folds (see Summary).
func (s *Summary) groups(keep func(*Entry) bool) []group {
	var out []group
	at := make(map[cellKey]int)
	for _, e := range s.sorted() {
		if !keep(e) {
			continue
		}
		m := &e.Metrics
		k := cellKey{m.Trace, m.Variant, m.Scheduler}
		i, ok := at[k]
		if !ok {
			i = len(out)
			at[k] = i
			out = append(out, group{cellKey: k})
		}
		out[i].entries = append(out[i].entries, e)
	}
	return out
}

// succeeded keeps the jobs that completed.
func succeeded(e *Entry) bool { return e.Metrics.Error == "" }

// cell is one cell's completed jobs folded: pooled CCTs and the sums
// the tables average over its n runs.
type cell struct {
	cellKey
	ccts                 []float64
	utilSum, makespanSum float64
	// thruSum accumulates per-job completed-coflows-per-second for the
	// capacity report; ports is the cell's cluster size.
	thruSum float64
	ports   int
	n       int
}

func (s *Summary) cells() []cell {
	groups := s.groups(succeeded)
	out := make([]cell, len(groups))
	for i, g := range groups {
		c := &out[i]
		c.cellKey, c.n = g.cellKey, len(g.entries)
		for _, e := range g.entries {
			m := &e.Metrics
			c.ccts = append(c.ccts, e.CCTs...)
			c.utilSum += m.Utilization
			c.makespanSum += m.Makespan
			if m.Makespan > 0 {
				c.thruSum += float64(m.CoFlows) / m.Makespan
			}
			c.ports = max(c.ports, m.Ports)
		}
	}
	return out
}

// CCTGroup pools one (trace, variant, scheduler) cell's per-CoFlow
// CCTs across seeds, in grid order — the grouping behind CCTTable,
// exported so derived consumers (study CDF tables) share one
// implementation of the cell key and label rules.
type CCTGroup struct {
	Label     string // trace plus variant, as rendered in tables
	Scheduler string
	CCTs      []float64 // pooled, grid order within each job
}

// CCTGroups returns the pooled per-cell CCT distributions, skipping
// errored jobs.
func (s *Summary) CCTGroups() []CCTGroup {
	cells := s.cells()
	out := make([]CCTGroup, len(cells))
	for i, c := range cells {
		out[i] = CCTGroup{Label: c.label(), Scheduler: c.scheduler, CCTs: c.ccts}
	}
	return out
}

// CapacityCells exports the pooled per-cell capacity measurements for
// the obs capacity report: throughput (completed coflows per simulated
// second, averaged over seeds), the pooled CCT percentiles, cluster
// size. Cells follow grid order; errored jobs are skipped.
func (s *Summary) CapacityCells() []obs.Cell {
	cells := s.cells()
	out := make([]obs.Cell, len(cells))
	for i, c := range cells {
		out[i] = obs.Cell{
			Trace:       c.trace,
			Variant:     c.variant,
			Scheduler:   c.scheduler,
			Runs:        c.n,
			CoFlows:     len(c.ccts),
			Ports:       c.ports,
			Throughput:  c.thruSum / float64(c.n),
			AvgCCT:      stats.Mean(c.ccts),
			P50CCT:      stats.Percentile(c.ccts, 50),
			P90CCT:      stats.Percentile(c.ccts, 90),
			P99CCT:      stats.Percentile(c.ccts, 99),
			Makespan:    c.makespanSum / float64(c.n),
			Utilization: c.utilSum / float64(c.n),
		}
	}
	return out
}

// CCTTable renders per-(trace, variant, scheduler) CCT statistics with
// seeds pooled: the per-scheduler comparison table of cmd/saath-sim.
func (s *Summary) CCTTable(title string) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"workload", "scheduler", "runs", "coflows", "avg cct (s)", "p50 (s)", "p90 (s)", "makespan (s)", "egress util"},
	}
	for _, c := range s.cells() {
		t.AddRow(c.label(), c.scheduler, c.n, len(c.ccts),
			fmt.Sprintf("%.3f", stats.Mean(c.ccts)),
			fmt.Sprintf("%.3f", stats.Percentile(c.ccts, 50)),
			fmt.Sprintf("%.3f", stats.Percentile(c.ccts, 90)),
			fmt.Sprintf("%.1f", c.makespanSum/float64(c.n)),
			fmt.Sprintf("%.2f", c.utilSum/float64(c.n)))
	}
	return t
}

// SpeedupTable renders the per-CoFlow speedup of every non-baseline
// scheduler over baseline, matched per (trace, variant, seed) so each
// CoFlow is compared against itself under the same workload draw. A
// run without a completed baseline run is left out.
func (s *Summary) SpeedupTable(title, baseline string) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"workload", "scheduler", "p10", "median", "p90", "mean", "n"},
	}
	type draw struct {
		trace, variant string
		seed           int64
	}
	drawOf := func(e *Entry) draw { return draw{e.Metrics.Trace, e.Metrics.Variant, e.Metrics.Seed} }
	base := make(map[draw]*Entry)
	for _, e := range s.sorted() {
		if e.Metrics.Scheduler == baseline && succeeded(e) {
			base[drawOf(e)] = e
		}
	}
	matched := func(e *Entry) bool {
		return e.Metrics.Scheduler != baseline && succeeded(e) && base[drawOf(e)] != nil
	}
	for _, g := range s.groups(matched) {
		var speedups []float64
		for _, e := range g.entries {
			speedups = append(speedups, stats.Speedups(base[drawOf(e)].CCTByID, e.CCTByID)...)
		}
		sum := stats.Summarize(speedups)
		t.AddRow(g.label(), g.scheduler,
			fmt.Sprintf("%.2f", sum.P10), fmt.Sprintf("%.2f", sum.Median),
			fmt.Sprintf("%.2f", sum.P90), fmt.Sprintf("%.2f", sum.Mean), sum.N)
	}
	return t
}
