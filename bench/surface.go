package main

// surface.go is the only file of the benchmark that imports repo
// packages: every function, type, field and constant listed here is
// the API the benchmark freezes. A later signature change is one edit
// to this file in a `benchmark` PR. It deliberately avoids
// sim.Config.Mode, sim.Config.Counters, sim.Result.Sched, the -engine
// flags and the root facade, all slated for removal (ROADMAP 2a/3d/3f).
//
// Each function below is one call into one layer, wrapped in the span
// that times it; the workloads compose them and never touch a repo
// type except through the aliases declared here.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"saath/internal/coflow"
	_ "saath/internal/core" // registers "saath"
	"saath/internal/report"
	"saath/internal/sched"
	_ "saath/internal/sched/aalo"  // registers "aalo"
	_ "saath/internal/sched/uctcp" // registers "uc-tcp"
	_ "saath/internal/sched/varys" // registers "varys"
	"saath/internal/sim"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/testbed"
	"saath/internal/trace"
)

// Opaque handles the workloads pass between surface calls.
type (
	Trace       = trace.Trace
	Study       = study.Study
	StudyResult = study.Result
	ShardDump   = study.ShardDump
	Table       = report.Table
)

// deltaNs is the scheduling interval of a zero-value sim.Config: a
// Schedule call slower than this misses its deadline (§5, Table 2).
const deltaNs = int64(8 * time.Millisecond)

// portBytesPerSec is the line rate of a zero-value sim.Config.
var portBytesPerSec = float64(coflow.GbpsRate(1))

// ---- sched: the wrapped policies ------------------------------------

// Policies the benchmark runs. Each is registered under a bench-owned
// name whose factory returns the real policy untouched when tracing is
// off, and the timing wrapper when it is on — so sweep and testbed
// jobs, which build their scheduler from a name, reach the wrapper
// without any span inside the repo, and traced and untraced runs carry
// identical names into every output byte.
const (
	polAalo  = "bench-aalo"
	polSaath = "bench-saath"
	polVarys = "bench-varys"
	polUCTCP = "bench-uc-tcp"
)

var realPolicy = map[string]string{
	polAalo: "aalo", polSaath: "saath", polVarys: "varys", polUCTCP: "uc-tcp",
}

// tracing is the collector wrappers report to; nil means untraced.
// It is package state only because sched.Register is.
var tracing atomic.Pointer[collector]

func init() {
	for name, real := range realPolicy {
		sched.Register(name, func(p sched.Params) (sched.Scheduler, error) {
			inner, err := sched.New(real, p)
			if err != nil {
				return nil, err
			}
			c := tracing.Load()
			if c == nil {
				return inner, nil
			}
			return &timedSched{inner: inner, st: c.newSchedStats(real)}, nil
		})
	}
}

// timedSched times the real policy from outside. Only the inner
// Schedule/Arrive/Depart calls sit in the timed windows; the reads of
// the snapshot and the changed-schedule comparison are booked to the
// wrapper's own overhead.
type timedSched struct {
	inner sched.Scheduler
	st    *schedStats
	prev  *sched.RateVec
}

func (t *timedSched) Name() string { return t.inner.Name() }

func (t *timedSched) Arrive(c *coflow.CoFlow, now coflow.Time) {
	t0 := time.Now()
	t.inner.Arrive(c, now)
	t.st.lifecycle.add(time.Since(t0))
}

func (t *timedSched) Depart(c *coflow.CoFlow, now coflow.Time) {
	t0 := time.Now()
	t.inner.Depart(c, now)
	t.st.lifecycle.add(time.Since(t0))
}

func (t *timedSched) Schedule(snap *sched.Snapshot) *sched.RateVec {
	t0 := time.Now()
	rv := t.inner.Schedule(snap)
	t1 := time.Now()
	t.st.schedule.add(t1.Sub(t0))

	t.st.observeActive(len(snap.Active))
	if t.prev == nil {
		t.prev = sched.NewRateVec(snap.FlowCap)
	}
	if !rv.Equal(t.prev) {
		t.st.changed++
		t.prev.Reset(snap.FlowCap)
		rv.Range(func(idx int, r coflow.Rate) bool {
			t.prev.Set(idx, r)
			return true
		})
	}
	t.st.overhead += time.Since(t1)
	return rv
}

// timedProbe times a telemetry probe the same way.
type timedProbe struct {
	inner telemetry.Probe
	acc   *accum
}

func (p *timedProbe) Observe(iv *telemetry.Interval) {
	t0 := time.Now()
	p.inner.Observe(iv)
	p.acc.add(time.Since(t0))
}

// ---- trace ----------------------------------------------------------

// synthSpec is a bench-owned description of one synthetic input; every
// field of trace.SynthConfig is spelled out from it, never defaulted.
type synthSpec struct {
	Ports, CoFlows            int
	MeanGapMs                 float64
	SingleFlow, EqualLength   float64
	Wide                      float64 // among multi-flow coflows
	SmallNarrow, SmallWide    float64 // share <= the small/large boundary
	MinSmallMB, MaxSmallMB    float64
	MinLargeMB, MaxLargeMB    float64
	SizeJitter, ArrivalJitter float64 // seeded perturbation, see perturb
}

func mb(v float64) coflow.Bytes { return coflow.Bytes(v * float64(coflow.MB)) }

// synthesize draws the structure of the input — who talks to whom, how
// much, when — from structSeed, then re-draws sizes and arrivals from
// seed (perturb).
func synthesize(rec *recorder, name string, s synthSpec, structSeed, seed int64) *Trace {
	id := rec.begin("trace.synthesize")
	defer rec.end(id)
	tr := trace.Synthesize(trace.SynthConfig{
		Seed:             structSeed,
		NumPorts:         s.Ports,
		NumCoFlows:       s.CoFlows,
		MeanInterArrival: coflow.Time(s.MeanGapMs * float64(coflow.Millisecond)),
		SingleFlowFrac:   s.SingleFlow,
		EqualLengthFrac:  s.EqualLength,
		WideFracNarrowCF: s.Wide,
		SmallFracNarrow:  s.SmallNarrow,
		SmallFracWide:    s.SmallWide,
		MinSmall:         mb(s.MinSmallMB),
		MaxSmall:         mb(s.MaxSmallMB),
		MinLarge:         mb(s.MinLargeMB),
		MaxLarge:         mb(s.MaxLargeMB),
	}, name)
	perturb(tr, s, seed)
	return tr
}

// perturb makes every seed a different input with the same cost
// profile: each coflow's flows are scaled by one factor in 1±SizeJitter
// (one factor, so equal-length coflows stay equal-length) and each
// arrival gap by a factor in 1±ArrivalJitter, which shifts every
// arrival against the δ grid. Re-drawing the structure itself from the
// seed was measured and rejected: with 526 heavy-tailed coflows the
// wall time of one replay spreads 36 % between seeds. So was
// relabelling the ports: the replay is then isomorphic — every CCT
// identical — yet alloc_mb spreads 7.5 %, which measures Go's map
// growth, not the input (README).
func perturb(tr *Trace, s synthSpec, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var prevOld, prevNew coflow.Time
	for _, sp := range tr.Specs {
		gap := sp.Arrival - prevOld
		prevOld = sp.Arrival
		prevNew += coflow.Time(float64(gap) * (1 + s.ArrivalJitter*(2*rng.Float64()-1)))
		sp.Arrival = prevNew
		k := 1 + s.SizeJitter*(2*rng.Float64()-1)
		for i := range sp.Flows {
			f := &sp.Flows[i]
			if f.Size = coflow.Bytes(float64(f.Size) * k); f.Size < 1 {
				f.Size = 1
			}
		}
	}
	if err := tr.Validate(); err != nil {
		panic("bench: perturbed trace invalid: " + err.Error())
	}
}

func cloneTrace(rec *recorder, tr *Trace) *Trace {
	id := rec.begin("trace.clone")
	defer rec.end(id)
	return tr.Clone()
}

// digestTrace folds the trace's canonical text form into h.
func digestTrace(h io.Writer, tr *Trace) error { return trace.Write(h, tr) }

// offered describes what one trace asks of the system: per coflow, its
// arrival and the least time any schedule needs (its busiest port's
// bytes at line rate).
type offered struct {
	coflows, flows int
	byID           map[int64]offer
}

type offer struct {
	arrivalUs int64
	floorUs   float64
}

func describe(tr *Trace) *offered {
	o := &offered{coflows: len(tr.Specs), byID: make(map[int64]offer, len(tr.Specs))}
	out := make([]coflow.Bytes, tr.NumPorts)
	in := make([]coflow.Bytes, tr.NumPorts)
	for _, sp := range tr.Specs {
		o.flows += len(sp.Flows)
		clear(out)
		clear(in)
		var busiest coflow.Bytes
		for _, f := range sp.Flows {
			out[f.Src] += f.Size
			in[f.Dst] += f.Size
			busiest = max(busiest, out[f.Src], in[f.Dst])
		}
		o.byID[int64(sp.ID)] = offer{
			arrivalUs: int64(sp.Arrival),
			floorUs:   float64(busiest) / portBytesPerSec * 1e6,
		}
	}
	return o
}

// ---- sim ------------------------------------------------------------

// outcome is one completed coflow, in simulated microseconds.
type outcome struct {
	ID                     int64
	ArrivalUs, DoneUs, CCT int64
}

// replayed is what one run of one trace under one policy produced.
type replayed struct {
	epochs   int
	coflows  []outcome
	exported int64 // telemetry export bytes, when probed
}

func outcomes(res *sim.Result) []outcome {
	out := make([]outcome, len(res.CoFlows))
	for i, c := range res.CoFlows {
		out[i] = outcome{ID: int64(c.ID), ArrivalUs: int64(c.Arrival), DoneUs: int64(c.DoneAt), CCT: int64(c.CCT)}
	}
	return out
}

// gridTelemetry is the collector set the study-grid workload attaches
// to every job.
func gridTelemetry() telemetry.Spec {
	return telemetry.Spec{Enabled: true, QueueTransitions: true, PortHeatmap: true}
}

// replay runs tr (consumed) under policy with the zero-value engine
// configuration — allocation audit on — and the paper's parameters.
// With probed set, the study's telemetry suite rides along behind a
// timed probe and is exported afterwards: the telemetry layer on its
// own.
func replay(rec *recorder, tr *Trace, policy string, probed bool) (*replayed, error) {
	s, err := sched.New(policy, sched.DefaultParams())
	if err != nil {
		return nil, err
	}
	var (
		cfg   sim.Config
		suite *telemetry.Suite
		seen  accum
	)
	if probed {
		suite = telemetry.NewSuite(gridTelemetry())
		cfg.Probes = []telemetry.Probe{&timedProbe{inner: suite, acc: &seen}}
	}
	id := rec.begin("sim.run")
	res, err := sim.Run(tr, s, cfg)
	rec.foldWrappers(id, 1)
	rec.fold(id, "telemetry.observe", &seen, 1)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	out := &replayed{epochs: res.Intervals, coflows: outcomes(res)}
	if probed {
		var buf countingWriter
		id = rec.begin("telemetry.export")
		err = encodeJSON(&buf, suite.Metrics())
		rec.end(id)
		out.exported = buf.n
	}
	return out, err
}

// ---- sweep / study / report -----------------------------------------

// gridSpec sizes the study-grid workload.
type gridSpec struct {
	input    synthSpec
	seeds    []int64
	deltasMs []int
}

// newGridStudy declares the bench-owned study: traces × four policies
// × seeds × δ, telemetry on, speedups against aalo. gen builds the
// (perturbed) trace of one study seed.
func newGridStudy(g gridSpec, gen func(studySeed int64) *Trace) (*Study, error) {
	variants := make([]sweep.Variant, len(g.deltasMs))
	for i, ms := range g.deltasMs {
		variants[i] = sweep.Variant{
			Name:   fmt.Sprintf("delta=%dms", ms),
			Config: sim.Config{Delta: coflow.Time(ms) * coflow.Millisecond},
		}
	}
	return study.New("bench-grid",
		study.WithTraces(sweep.SynthSource("grid", gen)),
		study.WithSchedulers(polAalo, polSaath, polVarys, polUCTCP),
		study.WithSeeds(g.seeds...),
		study.WithParamGrid(variants...),
		study.WithTelemetry(gridTelemetry()),
		study.WithBaseline(polAalo),
	)
}

const gridWorkers = 2

// jobTimes is the wall time of each job of one study execution.
type jobTimes []time.Duration

// runStudy executes shard i of n (n == 1: the whole grid) on the
// in-process pool.
func runStudy(rec *recorder, st *Study, i, n int) (*StudyResult, jobTimes, error) {
	var runner study.Runner = study.Pool{Parallel: gridWorkers}
	if n > 1 {
		runner = study.Sharded{Index: i, Count: n, Pool: study.Pool{Parallel: gridWorkers}}
	}
	id := rec.begin("sweep.run")
	res, err := st.Run(context.Background(), runner)
	rec.foldWrappers(id, gridWorkers)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	var times jobTimes
	for _, jr := range res.Sweep().Jobs {
		times = append(times, jr.Elapsed)
	}
	return res, times, nil
}

func writeShard(rec *recorder, w io.Writer, res *StudyResult, i, n int) error {
	id := rec.begin("study.shard_write")
	defer rec.end(id)
	return res.WriteShard(w, study.Sharded{Index: i, Count: n})
}

func readShard(rec *recorder, r io.Reader) (*ShardDump, error) {
	id := rec.begin("study.shard_read")
	defer rec.end(id)
	return study.ReadShard(r)
}

func mergeShards(rec *recorder, st *Study, dumps []*ShardDump) (*StudyResult, error) {
	id := rec.begin("study.merge")
	defer rec.end(id)
	return study.MergeShards(st, dumps...)
}

func studyTables(rec *recorder, res *StudyResult) ([]*Table, error) {
	id := rec.begin("study.tables")
	defer rec.end(id)
	return res.Tables()
}

func renderTables(rec *recorder, w io.Writer, tables []*Table) error {
	id := rec.begin("report.render")
	defer rec.end(id)
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

func exportSummary(rec *recorder, w io.Writer, res *StudyResult) error {
	id := rec.begin("sweep.export_json")
	defer rec.end(id)
	return res.Summary().WriteJSON(w)
}

func exportMetrics(rec *recorder, w io.Writer, res *StudyResult) error {
	id := rec.begin("sweep.export_metrics")
	defer rec.end(id)
	return res.Summary().WriteMetricsJSON(w)
}

// gridJob is one job of a study result, as the checks need it.
type gridJob struct {
	policy, errMsg string
	studySeed      int64
	epochs         int
	cct            map[int64]int64 // coflow → simulated µs
	samples        int             // per-coflow CCT samples recorded
}

func gridJobs(res *StudyResult) []gridJob {
	entries := res.Summary().Entries()
	jobs := make([]gridJob, len(entries))
	for i, e := range entries {
		j := gridJob{
			policy: e.Metrics.Scheduler, errMsg: e.Metrics.Error, studySeed: e.Metrics.Seed,
			epochs: e.Metrics.Intervals, samples: len(e.CCTs), cct: make(map[int64]int64, len(e.CCTByID)),
		}
		for id, t := range e.CCTByID {
			j.cct[int64(id)] = int64(t)
		}
		jobs[i] = j
	}
	return jobs
}

// ---- testbed / runtime ----------------------------------------------

// coordinated is one job through the real coordinator.
type coordinated struct {
	replayed
	boundaries, completed                  int
	admitted, rejected                     int64
	scheduleCalls                          int
	scheduleTotalNs, scheduleMeanNs, p90Ns int64
}

// runTestbed drives tr (consumed) through testbed.RunJob: one
// in-process agent per port, open admission.
func runTestbed(rec *recorder, tr *Trace, seed int64) (*coordinated, error) {
	job := sweep.Job{
		Index:     0,
		Trace:     tr.Name,
		Scheduler: polSaath,
		Seed:      seed,
		Params:    sched.DefaultParams(),
		Config:    sim.Config{},
		Gen:       func() *trace.Trace { return tr },
	}
	id := rec.begin("testbed.runjob")
	res, rr, err := testbed.RunJob(job, testbed.Config{})
	rec.foldWrappers(id, 1)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return &coordinated{
		replayed:        replayed{epochs: res.Intervals, coflows: outcomes(res)},
		boundaries:      rr.Boundaries,
		completed:       rr.Completed,
		admitted:        rr.Admitted,
		rejected:        rr.Rejected,
		scheduleTotalNs: rr.ScheduleTotalNs,
		scheduleMeanNs:  rr.ScheduleMeanNs,
		p90Ns:           rr.ScheduleP90Ns,
	}, nil
}
