package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"time"
)

// scale selects the input sizes: full is what BENCHMARK.json measures;
// smoke is a few dozen coflows per workload, for the tier-1 test.
type scale int

const (
	scaleFull scale = iota
	scaleSmoke
)

func (s scale) String() string { return [...]string{"full", "smoke"}[s] }

// structSeed fixes the structure draw of every input (see perturb).
const structSeed = 1

// workload is one set of inputs and the repetition that replays them.
// The loop is closed with one client: a repetition is a batch replay,
// and arrivals are open-loop only in simulated time.
type workload struct {
	name string
	// prepare makes the inputs from the seed.
	prepare func(rec *recorder, seed int64, sc scale) (*prepared, error)
	// rep replays them once. The warm-up repetition of set-up passes
	// warm = true (study-grid then runs its un-sharded reference).
	rep func(rec *recorder, p *prepared, warm bool) (*repOut, error)
	// probe, when set, runs once at the end of a traced run: extra
	// work that isolates a layer the repetitions cannot time.
	probe func(rec *recorder, p *prepared) *repOut
}

// prepared is the result of set-up before its warm-up repetition.
type prepared struct {
	seed    int64
	traces  []*Trace
	offered []*offered
	digest  uint64 // FNV-64a of trace.Write of every input trace

	// study-grid only.
	grid  gridSpec
	study *Study
}

// repOut is what one repetition produced, already checked.
type repOut struct {
	saathCCT    []int64 // simulated µs, every coflow of the saath replays/jobs
	completions int     // coflows completed, all policies
	epochs      int     // scheduling rounds, all policies
	ops, failed int     // coflows offered / not served correctly
	digest      uint64
	problems    []string
	speedups    []float64          // fb-headline: per-coflow aalo CCT ÷ saath CCT
	layer       map[string]float64 // workload-specific per-layer values
	jobBusy     time.Duration      // study-grid: Σ of its jobs' wall times
}

func (o *repOut) problemf(format string, args ...any) {
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func prepareOne(name string, full, smoke synthSpec) func(*recorder, int64, scale) (*prepared, error) {
	return func(rec *recorder, seed int64, sc scale) (*prepared, error) {
		spec := full
		if sc == scaleSmoke {
			spec = smoke
		}
		tr := synthesize(rec, name, spec, structSeed, seed)
		return finishPrepare(&prepared{seed: seed, traces: []*Trace{tr}})
	}
}

func finishPrepare(p *prepared) (*prepared, error) {
	h := fnv.New64a()
	for _, tr := range p.traces {
		if err := digestTrace(h, tr); err != nil {
			return nil, err
		}
		p.offered = append(p.offered, describe(tr))
	}
	p.digest = h.Sum64()
	return p, nil
}

// The paper's FB marginals (§2.3, Table 1): 150 ports, 526 coflows,
// 150 ms mean inter-arrival, 23 % single-flow, half of the multi-flow
// coflows equal-length, bins (54, 14, 12, 20) %, sizes 1 MB–20 GB.
var fbFull = synthSpec{
	Ports: 150, CoFlows: 526, MeanGapMs: 150,
	SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.34 / 0.77,
	SmallNarrow: 0.54 / 0.66, SmallWide: 0.14 / 0.34,
	MinSmallMB: 1, MaxSmallMB: 100, MinLargeMB: 100, MaxLargeMB: 20 * 1024,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

var fbSmoke = synthSpec{
	Ports: 20, CoFlows: 30, MeanGapMs: 150,
	SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.34 / 0.77,
	SmallNarrow: 0.54 / 0.66, SmallWide: 0.14 / 0.34,
	MinSmallMB: 1, MaxSmallMB: 20, MinLargeMB: 20, MaxLargeMB: 200,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

// Hundreds of wide, large coflows arriving 5 ms apart: nearly all of
// them are live at once.
var denseFull = synthSpec{
	Ports: 150, CoFlows: 400, MeanGapMs: 5,
	SingleFlow: 0.05, EqualLength: 0.50 / 0.77, Wide: 0.80,
	SmallNarrow: 0.20, SmallWide: 0.20,
	MinSmallMB: 1, MaxSmallMB: 100, MinLargeMB: 100, MaxLargeMB: 2 * 1024,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

var denseSmoke = synthSpec{
	Ports: 20, CoFlows: 24, MeanGapMs: 5,
	SingleFlow: 0.05, EqualLength: 0.50 / 0.77, Wide: 0.80,
	SmallNarrow: 0.20, SmallWide: 0.20,
	MinSmallMB: 1, MaxSmallMB: 20, MinLargeMB: 20, MaxLargeMB: 100,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

// Twenty thousand small coflows, 400 ms apart: the fabric is idle most
// of the simulated time and the scheduler has next to nothing to do.
var sparseFull = synthSpec{
	Ports: 150, CoFlows: 20000, MeanGapMs: 400,
	SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.05,
	SmallNarrow: 1, SmallWide: 1,
	MinSmallMB: 1, MaxSmallMB: 20, MinLargeMB: 20, MaxLargeMB: 20,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

var sparseSmoke = synthSpec{
	Ports: 20, CoFlows: 200, MeanGapMs: 400,
	SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.05,
	SmallNarrow: 1, SmallWide: 1,
	MinSmallMB: 1, MaxSmallMB: 20, MinLargeMB: 20, MaxLargeMB: 20,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

// The study grid: FB-shaped 40-port / 60-coflow traces.
var gridFull = gridSpec{
	input: synthSpec{
		Ports: 40, CoFlows: 60, MeanGapMs: 150,
		SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.34 / 0.77,
		SmallNarrow: 0.54 / 0.66, SmallWide: 0.14 / 0.34,
		MinSmallMB: 1, MaxSmallMB: 100, MinLargeMB: 100, MaxLargeMB: 2 * 1024,
		SizeJitter: 0.02, ArrivalJitter: 0.10,
	},
	seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
	deltasMs: []int{4, 8, 16},
}

var gridSmoke = gridSpec{
	input: synthSpec{
		Ports: 12, CoFlows: 12, MeanGapMs: 150,
		SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.34 / 0.77,
		SmallNarrow: 0.54 / 0.66, SmallWide: 0.14 / 0.34,
		MinSmallMB: 1, MaxSmallMB: 20, MinLargeMB: 20, MaxLargeMB: 100,
		SizeJitter: 0.02, ArrivalJitter: 0.10,
	},
	seeds:    []int64{1, 2},
	deltasMs: []int{4, 8},
}

const gridShards = 4

// One agent per port at the paper's largest testbed scale, coflows
// sized to drain in a few simulated seconds.
var testbedFull = synthSpec{
	Ports: 2000, CoFlows: 2000, MeanGapMs: 15,
	SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.34 / 0.77,
	SmallNarrow: 0.54 / 0.66, SmallWide: 0.14 / 0.34,
	MinSmallMB: 2, MaxSmallMB: 8, MinLargeMB: 8, MaxLargeMB: 48,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

var testbedSmoke = synthSpec{
	Ports: 40, CoFlows: 40, MeanGapMs: 15,
	SingleFlow: 0.23, EqualLength: 0.50 / 0.77, Wide: 0.34 / 0.77,
	SmallNarrow: 0.54 / 0.66, SmallWide: 0.14 / 0.34,
	MinSmallMB: 2, MaxSmallMB: 8, MinLargeMB: 8, MaxLargeMB: 48,
	SizeJitter: 0.02, ArrivalJitter: 0.10,
}

// workloads lists the benchmark's workloads in BENCHMARK.json order;
// why each exists is recorded there and in README.md.
var workloads = []*workload{
	{
		name:    "fb-headline",
		prepare: prepareOne("fb-headline", fbFull, fbSmoke),
		rep:     replayRep(polAalo, polSaath),
	},
	{
		name:    "dense-burst",
		prepare: prepareOne("dense-burst", denseFull, denseSmoke),
		rep:     replayRep(polSaath),
	},
	{
		name:    "sparse-longtail",
		prepare: prepareOne("sparse-longtail", sparseFull, sparseSmoke),
		rep:     replayRep(polSaath),
	},
	{
		name:    "study-grid",
		prepare: prepareGrid,
		rep:     gridRep,
		probe:   gridProbe,
	},
	{
		name:    "coordinator-testbed",
		prepare: prepareOne("coordinator-testbed", testbedFull, testbedSmoke),
		rep:     testbedRep,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// replayRep replays the one input under each policy in turn.
func replayRep(policies ...string) func(*recorder, *prepared, bool) (*repOut, error) {
	return func(rec *recorder, p *prepared, _ bool) (*repOut, error) {
		out := &repOut{}
		h := fnv.New64a()
		var aalo map[int64]int64
		for _, pol := range policies {
			got, err := replay(rec, cloneTrace(rec, p.traces[0]), pol, false)
			checkReplay(out, p.offered[0], pol, got, err)
			if err != nil {
				continue
			}
			out.epochs += got.epochs
			hashOutcomes(h, pol, got.coflows)
			switch pol {
			case polAalo:
				aalo = make(map[int64]int64, len(got.coflows))
				for _, c := range got.coflows {
					aalo[c.ID] = c.CCT
				}
			case polSaath:
				for _, c := range got.coflows {
					out.saathCCT = append(out.saathCCT, c.CCT)
					if base, ok := aalo[c.ID]; ok && c.CCT > 0 {
						out.speedups = append(out.speedups, float64(base)/float64(c.CCT))
					}
				}
			}
		}
		out.digest = h.Sum64()
		return out, nil
	}
}

func testbedRep(rec *recorder, p *prepared, _ bool) (*repOut, error) {
	out := &repOut{layer: map[string]float64{}}
	got, err := runTestbed(rec, cloneTrace(rec, p.traces[0]), p.seed)
	if err != nil {
		checkReplay(out, p.offered[0], polSaath, nil, err)
		return out, nil
	}
	checkReplay(out, p.offered[0], polSaath, &got.replayed, nil)
	if n := p.offered[0].coflows; got.completed != n || got.admitted != int64(n) {
		out.failed = out.ops
		out.problemf("coordinator: offered %d, admitted %d, rejected %d, completed %d", n, got.admitted, got.rejected, got.completed)
	}
	out.epochs = got.boundaries
	for _, c := range got.coflows {
		out.saathCCT = append(out.saathCCT, c.CCT)
	}
	h := fnv.New64a()
	hashOutcomes(h, polSaath, got.coflows)
	out.digest = h.Sum64()
	out.layer["runtime.schedule_s"] = float64(got.scheduleTotalNs) / 1e9
	out.layer["runtime.schedule_mean_us"] = float64(got.scheduleMeanNs) / 1e3
	out.layer["runtime.schedule_p90_us"] = float64(got.p90Ns) / 1e3
	out.layer["runtime.boundaries"] = float64(got.boundaries)
	out.layer["runtime.admitted"] = float64(got.admitted)
	out.layer["runtime.rejected"] = float64(got.rejected)
	return out, nil
}

func prepareGrid(rec *recorder, seed int64, sc scale) (*prepared, error) {
	p := &prepared{seed: seed, grid: gridFull}
	if sc == scaleSmoke {
		p.grid = gridSmoke
	}
	// Every job re-synthesizes its trace inside the sweep, on the pool's
	// goroutines and unrecorded; the copies made here are the reference
	// the checks and the digest use.
	gen := func(rec *recorder) func(int64) *Trace {
		return func(studySeed int64) *Trace {
			return synthesize(rec, "grid", p.grid.input, studySeed, seed*1_000_003+studySeed)
		}
	}
	for _, s := range p.grid.seeds {
		p.traces = append(p.traces, gen(rec)(s))
	}
	st, err := newGridStudy(p.grid, gen(newRecorder(false)))
	if err != nil {
		return nil, err
	}
	p.study = st
	return finishPrepare(p)
}

// gridRep runs the study the way a sharded deployment does: four shard
// runs, each dumped and read back, merged, rendered and exported. The
// warm-up runs the same study un-sharded; both must produce the same
// bytes, which the result digest covers.
func gridRep(rec *recorder, p *prepared, warm bool) (*repOut, error) {
	out := &repOut{layer: map[string]float64{}}
	var (
		final      *StudyResult
		times      jobTimes
		shardBytes int
	)
	if warm {
		res, t, err := runStudy(rec, p.study, 0, 1)
		if err != nil {
			return nil, err
		}
		final, times = res, t
	} else {
		dumps := make([]*ShardDump, gridShards)
		bufs := make([]bytes.Buffer, gridShards)
		for i := range bufs {
			res, t, err := runStudy(rec, p.study, i, gridShards)
			if err != nil {
				return nil, err
			}
			times = append(times, t...)
			if err := writeShard(rec, &bufs[i], res, i, gridShards); err != nil {
				return nil, err
			}
			shardBytes += bufs[i].Len()
		}
		for i := range bufs {
			d, err := readShard(rec, &bufs[i])
			if err != nil {
				return nil, err
			}
			dumps[i] = d
		}
		merged, err := mergeShards(rec, p.study, dumps)
		if err != nil {
			return nil, err
		}
		final = merged
	}
	tables, err := studyTables(rec, final)
	if err != nil {
		return nil, err
	}
	rendered, summary, metrics := newHashingWriter(), newHashingWriter(), newHashingWriter()
	if err := renderTables(rec, rendered, tables); err != nil {
		return nil, err
	}
	if err := exportSummary(rec, summary, final); err != nil {
		return nil, err
	}
	if err := exportMetrics(rec, metrics, final); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%x %x %x", rendered.Sum64(), summary.Sum64(), metrics.Sum64())
	out.digest = h.Sum64()

	byStudySeed := map[int64]*offered{}
	for i, s := range p.grid.seeds {
		byStudySeed[s] = p.offered[i]
	}
	jobs := gridJobs(final)
	failedJobs := 0
	for _, j := range jobs {
		before := out.failed
		checkGridJob(out, byStudySeed[j.studySeed], j)
		if out.failed > before {
			failedJobs++
		}
		out.epochs += j.epochs
		if j.policy == polSaath {
			for _, cct := range j.cct {
				out.saathCCT = append(out.saathCCT, cct)
			}
		}
	}
	if want := len(p.grid.seeds) * len(p.grid.deltasMs) * 4; len(jobs) != want {
		out.failed = out.ops
		out.problemf("study: %d jobs in the result, want %d", len(jobs), want)
	}

	slices.Sort(times)
	var busy time.Duration
	for _, t := range times {
		busy += t
	}
	out.layer["sweep.jobs"] = float64(len(jobs))
	out.layer["sweep.jobs_failed"] = float64(failedJobs)
	if len(times) > 0 {
		out.layer["sweep.job_p50_ms"] = ms(times[len(times)/2])
		out.layer["sweep.job_max_ms"] = ms(times[len(times)-1])
	}
	out.jobBusy = busy
	out.layer["sweep.export_bytes"] = float64(summary.n + metrics.n)
	out.layer["study.shard_bytes"] = float64(shardBytes)
	out.layer["report.render_bytes"] = float64(rendered.n)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// gridProbe replays one job of the study directly with the study's
// telemetry suite behind a timed probe, then exports it: inside a
// sweep the telemetry layer cannot be told apart from the engine.
func gridProbe(rec *recorder, p *prepared) *repOut {
	out := &repOut{layer: map[string]float64{}}
	id := rec.begin("telemetry.replay")
	got, err := replay(rec, cloneTrace(rec, p.traces[0]), polSaath, true)
	rec.end(id)
	checkReplay(out, p.offered[0], "telemetry replay", got, err)
	if err == nil {
		out.layer["telemetry.export_bytes"] = float64(got.exported)
	}
	return out
}
