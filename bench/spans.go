package main

import (
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, or — when Calls > 0 — the fold
// of many short calls a wrapper timed (one span per epoch would swamp
// the list). Spans form a tree: workload → setup / rep → layer calls →
// folded wrapper calls.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the list; -1 for the root
	Rep     int    `json:"rep"`    // repetition id; -1 outside repetitions
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	// Folded spans only. BusyNs is the sum of the calls' durations;
	// Width is how many goroutines of the parent made them, so the part
	// of the parent's interval they cover is BusyNs / Width.
	Calls  int64 `json:"calls,omitempty"`
	BusyNs int64 `json:"busy_ns,omitempty"`
	P50Ns  int64 `json:"p50_ns,omitempty"`
	P99Ns  int64 `json:"p99_ns,omitempty"`
	MaxNs  int64 `json:"max_ns,omitempty"`
	Width  int   `json:"width,omitempty"`
}

// covered is the part of its parent's interval the span accounts for.
func (s *span) covered() int64 {
	if s.Calls > 0 {
		return s.BusyNs / int64(max(s.Width, 1))
	}
	return s.EndNs - s.StartNs
}

// accum folds the durations of many short calls: count, sum, max and
// every sample (a run has at most a few hundred thousand epochs).
type accum struct {
	n       int64
	sum     time.Duration
	max     time.Duration
	samples []time.Duration
}

func (a *accum) add(d time.Duration) {
	a.n++
	a.sum += d
	a.max = max(a.max, d)
	a.samples = append(a.samples, d)
}

func (a *accum) merge(b *accum) {
	a.n += b.n
	a.sum += b.sum
	a.max = max(a.max, b.max)
	a.samples = append(a.samples, b.samples...)
}

func (a *accum) mean() time.Duration {
	if a.n == 0 {
		return 0
	}
	return a.sum / time.Duration(a.n)
}

// quantile sorts the samples in place; their order carries nothing.
func (a *accum) quantile(q float64) time.Duration {
	if len(a.samples) == 0 {
		return 0
	}
	slices.Sort(a.samples)
	return a.samples[int(q*float64(len(a.samples)-1))]
}

func (a *accum) over(limit time.Duration) (n int64) {
	for _, d := range a.samples {
		if d > limit {
			n++
		}
	}
	return n
}

// schedStats is what the wrappers around one policy saw during one
// repetition.
type schedStats struct {
	policy    string
	rep       int
	schedule  accum         // inner Schedule calls
	lifecycle accum         // inner Arrive and Depart calls
	overhead  time.Duration // the wrapper's own bookkeeping

	activeSum int64 // Σ len(Snapshot.Active) over epochs
	activeMax int
	changed   int64 // epochs whose schedule differs from the previous one
}

func (s *schedStats) observeActive(n int) {
	s.activeSum += int64(n)
	s.activeMax = max(s.activeMax, n)
}

func (s *schedStats) merge(o *schedStats) {
	s.schedule.merge(&o.schedule)
	s.lifecycle.merge(&o.lifecycle)
	s.overhead += o.overhead
	s.activeSum += o.activeSum
	s.activeMax = max(s.activeMax, o.activeMax)
	s.changed += o.changed
}

// collector is where scheduler wrappers — built on whatever goroutine
// a job runs on — register; each wrapper then writes only its own
// schedStats, and the driving goroutine drains after the jobs ended.
type collector struct {
	mu    sync.Mutex
	stats []*schedStats
}

func (c *collector) newSchedStats(policy string) *schedStats {
	st := &schedStats{policy: policy}
	c.mu.Lock()
	c.stats = append(c.stats, st)
	c.mu.Unlock()
	return st
}

func (c *collector) drain() []*schedStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	c.stats = nil
	return out
}

// recorder keeps the in-memory span list of a traced run. A recorder
// that is off records nothing, so untraced runs pay one branch per
// layer call. Spans are opened and closed by the one goroutine that
// drives the workload; wrappers on other goroutines report through the
// collector and are folded in after the call that ran them returned.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	rep   int
	col   collector
	sched []*schedStats // per repetition and policy, merged over wrappers
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), rep: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) begin(name string) int {
	if !r.on {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Rep: r.rep, StartNs: r.now()})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].EndNs = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// fold adds acc as a folded child of span parent.
func (r *recorder) fold(parent int, name string, acc *accum, width int) {
	if parent < 0 || acc.n == 0 {
		return
	}
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Rep: r.spans[parent].Rep, StartNs: r.spans[parent].StartNs, EndNs: r.now(),
		Calls: acc.n, BusyNs: int64(acc.sum), P50Ns: int64(acc.quantile(0.50)), P99Ns: int64(acc.quantile(0.99)),
		MaxNs: int64(acc.max), Width: width,
	})
}

// attach routes the scheduler wrappers of every policy built from now
// on to this recorder; detach makes the factories hand out the bare
// policies again.
func (r *recorder) attach() { tracing.Store(&r.col) }

func detach() { tracing.Store(nil) }

// foldWrappers drains what the scheduler wrappers saw since the last
// drain and folds it under span parent: one child per policy and call
// kind, plus the wrappers' own bookkeeping as bench.trace_overhead.
// width is the number of goroutines the parent ran jobs on.
func (r *recorder) foldWrappers(parent, width int) {
	if parent < 0 {
		return
	}
	var overhead accum
	var batch []*schedStats // this call's wrappers, merged per policy
	for _, st := range r.col.drain() {
		overhead.n += st.schedule.n
		overhead.sum += st.overhead
		i := slices.IndexFunc(batch, func(m *schedStats) bool { return m.policy == st.policy })
		if i < 0 {
			i = len(batch)
			batch = append(batch, &schedStats{policy: st.policy, rep: r.rep})
		}
		batch[i].merge(st)
	}
	slices.SortFunc(batch, func(a, b *schedStats) int { return strings.Compare(a.policy, b.policy) })
	for _, m := range batch {
		r.fold(parent, m.policy+".schedule", &m.schedule, width)
		r.fold(parent, m.policy+".arrive_depart", &m.lifecycle, width)
		if all := r.schedStats(m.policy, r.rep); all != nil {
			all.merge(m)
		} else {
			r.sched = append(r.sched, m)
		}
	}
	r.fold(parent, "bench.trace_overhead", &overhead, width)
}

func (r *recorder) schedStats(policy string, rep int) *schedStats {
	for _, m := range r.sched {
		if m.policy == policy && m.rep == rep {
			return m
		}
	}
	return nil
}

// total sums the covered time of the spans named name in repetition
// rep, and counts them (folded spans count their calls).
func (r *recorder) total(name string, rep int) (d time.Duration, n int64) {
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.Rep == rep {
			if s.Calls > 0 {
				d += time.Duration(s.BusyNs)
				n += s.Calls
			} else {
				d += time.Duration(s.EndNs - s.StartNs)
				n++
			}
		}
	}
	return d, n
}

// self is the time of the spans named name in repetition rep that none
// of their children covers.
func (r *recorder) self(name string, rep int) time.Duration {
	var d int64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name && s.Rep == rep && s.Calls == 0 {
			d += s.EndNs - s.StartNs
			for j := range r.spans {
				if r.spans[j].Parent == i {
					d -= r.spans[j].covered()
				}
			}
		}
	}
	return time.Duration(d)
}
