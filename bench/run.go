package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// procs pins GOMAXPROCS: the benchmark box has two cores, and before
// Go 1.25 the runtime ignores a container's CPU quota.
const procs = 2

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64 // how long the timed repetitions run
	traced  bool
	sc      scale
}

// setups is how often set-up (inputs, digest, warm-up repetition) runs
// in an untraced run; setup_s is the median. Two, not more: a set-up
// costs a whole repetition, setup_s has the widest bound, and the time
// is better spent on a fourth timed repetition.
func (c runConfig) setups() int {
	if c.traced || c.sc == scaleSmoke {
		return 1
	}
	return 2
}

// minReps is the least number of timed repetitions (pairs when traced).
func (c runConfig) minReps() int {
	if c.traced || c.sc == scaleSmoke {
		return 1
	}
	return 4
}

// runResult is everything one invocation measured.
type runResult struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Scale        string                 `json:"scale"`
	Seconds      float64                `json:"seconds"`
	Traced       bool                   `json:"traced"`
	GOMAXPROCS   int                    `json:"gomaxprocs"`
	GoVersion    string                 `json:"go_version"`
	InputsDigest string                 `json:"inputs_digest"`
	ResultDigest string                 `json:"result_digest"`
	Setups       int                    `json:"setups"`
	Reps         int                    `json:"reps"`
	Ops          int                    `json:"ops"`
	OpsFailed    int                    `json:"ops_failed"`
	Correct      bool                   `json:"correct"`
	Problems     []string               `json:"problems,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	Spans        []span                 `json:"spans,omitempty"`
}

// sample is one measured repetition.
type sample struct {
	wall, cpu  time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	out        *repOut
}

// rusage reads the process's CPU time so far and its peak RSS.
func rusage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KB
}

// measure runs one repetition from a collected heap, with the memory
// statistics read outside the timed window.
func measure(rec *recorder, cfg runConfig, p *prepared, rep int) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rec.rep = rep
	c0, _ := rusage()
	t0 := time.Now()
	id := rec.begin("rep")
	out, err := cfg.w.rep(rec, p, false)
	rec.end(id)
	wall := time.Since(t0)
	c1, _ := rusage()
	s := sample{wall: wall, cpu: c1 - c0, out: out}
	rec.rep = -1
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return s, err
}

// run executes one workload: set-up, then timed repetitions for
// cfg.seconds. Untraced, every repetition feeds the end-to-end
// metrics. Traced, repetitions come in pairs — one bare, one with the
// wrappers and spans on — so the per-layer metrics come with the
// overhead of taking them.
func run(cfg runConfig) (*runResult, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	defer detach()

	res := &runResult{
		Workload: cfg.w.name, Seed: cfg.seed, Scale: cfg.sc.String(), Seconds: cfg.seconds, Traced: cfg.traced,
		GOMAXPROCS: procs, GoVersion: runtime.Version(), Setups: cfg.setups(), Correct: true,
		Metrics: map[string]metricValue{},
	}
	rec, bare := newRecorder(cfg.traced), newRecorder(false)
	root := rec.begin("workload")

	book := func(what string, out *repOut, want uint64) {
		res.Ops += out.ops
		res.OpsFailed += out.failed
		for _, p := range out.problems {
			res.problem("%s: %s", what, p)
		}
		if out.failed == 0 && out.digest != want {
			res.OpsFailed += out.ops
			res.problem("%s: result digest %016x differs from the warm-up's %016x", what, out.digest, want)
		}
	}

	var (
		p          *prepared
		setupTimes []float64
		digest     uint64
	)
	for i := 0; i < cfg.setups(); i++ {
		t0 := time.Now()
		id := rec.begin("setup")
		next, err := cfg.w.prepare(rec, cfg.seed, cfg.sc)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.w.name, err)
		}
		warm, err := cfg.w.rep(rec, next, true)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", cfg.w.name, err)
		}
		rec.end(id)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if i == 0 {
			digest = warm.digest
		} else if next.digest != p.digest {
			res.problem("set-up %d: inputs digest %016x differs from %016x", i, next.digest, p.digest)
			res.Correct = false
		}
		p = next
		book(fmt.Sprintf("warm-up %d", i), warm, digest)
	}
	res.InputsDigest = fmt.Sprintf("%016x", p.digest)
	res.ResultDigest = fmt.Sprintf("%016x", digest)

	var plain, traced []sample
	start := time.Now()
	for i := 0; i < cfg.minReps() || time.Since(start).Seconds() < cfg.seconds; i++ {
		s, err := measure(bare, cfg, p, i)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", cfg.w.name, i, err)
		}
		book(fmt.Sprintf("repetition %d", i), s.out, digest)
		plain = append(plain, s)
		if !cfg.traced {
			continue
		}
		rec.attach()
		s, err = measure(rec, cfg, p, i)
		detach()
		if err != nil {
			return nil, fmt.Errorf("%s: traced repetition %d: %w", cfg.w.name, i, err)
		}
		book(fmt.Sprintf("traced repetition %d", i), s.out, digest)
		traced = append(traced, s)
	}
	res.Reps = len(plain)

	if !cfg.traced {
		endToEndMetrics(res, setupTimes, plain)
	} else {
		var probed *repOut
		if cfg.w.probe != nil {
			rec.attach()
			probed = cfg.w.probe(rec, p)
			detach()
			res.Ops += probed.ops
			res.OpsFailed += probed.failed
			for _, pr := range probed.problems {
				res.problem("%s", pr)
			}
		}
		rec.end(root)
		perLayerMetrics(res, rec, p, plain, traced, probed)
		res.Spans = rec.spans
	}
	if res.OpsFailed > 0 {
		res.Correct = false
	}
	return res, nil
}

func (r *runResult) problem(format string, args ...any) {
	if len(r.Problems) < 16 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) set(defs []metricDef, name string, samples []float64) {
	i := slices.IndexFunc(defs, func(d metricDef) bool { return d.Name == name })
	if i < 0 {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	mv := metricValue{Value: median(samples), Unit: defs[i].Unit}
	if len(samples) > 1 {
		mv.Samples = samples
	}
	r.Metrics[name] = mv
}

func endToEndMetrics(res *runResult, setupTimes []float64, reps []sample) {
	var wall, cpu, rate, alloc []float64
	for _, s := range reps {
		wall = append(wall, s.wall.Seconds())
		cpu = append(cpu, s.cpu.Seconds())
		rate = append(rate, float64(s.out.completions)/s.wall.Seconds())
		alloc = append(alloc, float64(s.allocBytes)/(1<<20))
	}
	res.set(endToEnd, "setup_s", setupTimes)
	res.set(endToEnd, "wall_s", wall)
	res.set(endToEnd, "cpu_s", cpu)
	res.set(endToEnd, "coflows_per_s", rate)
	res.set(endToEnd, "alloc_mb", alloc)
	// Simulated time repeats exactly: every repetition has the same
	// digest, so the first speaks for all.
	cct := seconds(reps[0].out.saathCCT)
	res.set(endToEnd, "cct_p50_s", []float64{quantile(cct, 0.50)})
	res.set(endToEnd, "cct_p90_s", []float64{quantile(cct, 0.90)})
	res.set(endToEnd, "cct_avg_s", []float64{mean(cct)})
}

// perLayerMetrics derives every per-layer metric of each traced
// repetition from its spans, its wrappers' statistics and the values
// the workload handed back, and reports the median over repetitions.
func perLayerMetrics(res *runResult, rec *recorder, p *prepared, plain, traced []sample, probed *repOut) {
	values := map[string][]float64{}
	put := func(name string, v float64) { values[name] = append(values[name], v) }
	spanS := func(name string, rep int) float64 { d, _ := rec.total(name, rep); return d.Seconds() }

	var coflows, flows int
	for _, o := range p.offered {
		coflows += o.coflows
		flows += o.flows
	}
	for rep, s := range traced {
		wall := s.wall.Seconds()
		for k, v := range s.out.layer {
			put(k, v)
		}
		put("trace.synthesize_ms", 1e3*spanS("trace.synthesize", -1))
		put("trace.clone_ms", 1e3*spanS("trace.clone", rep))
		put("trace.coflows", float64(coflows))
		put("trace.flows", float64(flows))

		epochs := float64(s.out.epochs)
		put("sim.epochs", epochs)
		put("sim.epochs_per_coflow", epochs/float64(max(s.out.completions, 1)))
		if simRun := spanS("sim.run", rep); simRun > 0 {
			self := rec.self("sim.run", rep).Seconds()
			put("sim.run_s", simRun)
			put("sim.engine_self_s", self)
			put("sim.engine_self_share", self/wall)
			put("sim.engine_self_us_per_epoch", 1e6*self/epochs)
		}
		if len(s.out.speedups) > 0 {
			p50, p90 := quantile(s.out.speedups, 0.50), quantile(s.out.speedups, 0.90)
			put("sim.speedup_p50_vs_aalo", p50)
			put("sim.speedup_p90_vs_aalo", p90)
			put("fidelity_gap_p50", math.Abs(math.Log(p50/paperSpeedupP50)))
			put("fidelity_gap_p90", math.Abs(math.Log(p90/paperSpeedupP90)))
		}

		if st := rec.schedStats("saath", rep); st != nil {
			sc := &st.schedule
			put("core.schedule_s", sc.sum.Seconds())
			put("core.schedule_share", sc.sum.Seconds()/wall)
			put("core.schedule_calls", float64(sc.n))
			put("core.schedule_mean_us", us(sc.mean()))
			put("core.schedule_p50_us", us(sc.quantile(0.50)))
			put("core.schedule_p99_us", us(sc.quantile(0.99)))
			put("core.schedule_max_us", us(sc.max))
			put("core.schedule_over_delta", float64(sc.over(time.Duration(deltaNs))))
			put("core.arrive_depart_ms", ms(st.lifecycle.sum))
			put("sched.active_mean", float64(st.activeSum)/float64(max(sc.n, 1)))
			put("sched.active_max", float64(st.activeMax))
			put("sched.changed_epoch_ratio", float64(st.changed)/float64(max(sc.n, 1)))
		}
		if st := rec.schedStats("aalo", rep); st != nil {
			put("aalo.schedule_s", st.schedule.sum.Seconds())
			put("aalo.schedule_mean_us", us(st.schedule.mean()))
			put("aalo.schedule_p99_us", us(st.schedule.quantile(0.99)))
		}

		if sweepRun := spanS("sweep.run", rep); sweepRun > 0 {
			put("sweep.run_s", sweepRun)
			put("sweep.pool_efficiency", s.out.jobBusy.Seconds()/(gridWorkers*sweepRun))
			put("sweep.export_json_ms", 1e3*spanS("sweep.export_json", rep))
			put("sweep.export_metrics_ms", 1e3*spanS("sweep.export_metrics", rep))
			put("study.shard_write_ms", 1e3*spanS("study.shard_write", rep))
			put("study.shard_read_ms", 1e3*spanS("study.shard_read", rep))
			put("study.merge_ms", 1e3*spanS("study.merge", rep))
			put("study.tables_ms", 1e3*spanS("study.tables", rep))
			put("report.render_ms", 1e3*spanS("report.render", rep))
		}
		if runJob := spanS("testbed.runjob", rep); runJob > 0 {
			self := rec.self("testbed.runjob", rep).Seconds()
			put("testbed.runjob_s", runJob)
			put("runtime.self_s", self)
			put("runtime.us_per_boundary", 1e6*self/epochs)
			put("runtime.alloc_kb_per_boundary", float64(s.allocBytes)/1024/epochs)
		}

		put("host.gc_cycles", float64(s.gcCycles))
		put("host.gc_pause_ms", ms(s.gcPause))
		put("host.mallocs_per_coflow", float64(s.mallocs)/float64(max(s.out.completions, 1)))
		put("bench.trace_overhead_ms", 1e3*spanS("bench.trace_overhead", rep))
	}
	if probed != nil {
		observe, calls := rec.total("telemetry.observe", -1)
		put("telemetry.observe_s", observe.Seconds())
		put("telemetry.observe_us_per_epoch", us(observe)/float64(max(calls, 1)))
		put("telemetry.export_ms", 1e3*spanS("telemetry.export", -1))
		put("telemetry.export_bytes", probed.layer["telemetry.export_bytes"])
	}
	var bareWall, tracedWall []float64
	for i := range traced {
		bareWall = append(bareWall, plain[i].wall.Seconds())
		tracedWall = append(tracedWall, traced[i].wall.Seconds())
	}
	put("host.tracing_overhead_pct", 100*(median(tracedWall)/median(bareWall)-1))
	_, peak := rusage()
	put("host.peak_rss_mb", peak)

	for _, d := range perLayer {
		if len(values[d.Name]) == 0 {
			values[d.Name] = []float64{0}
		}
	}
	for name, v := range values {
		res.set(perLayer, name, v)
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func seconds(us []int64) []float64 {
	out := make([]float64, len(us))
	for i, v := range us {
		out[i] = float64(v) / 1e6
	}
	slices.Sort(out) // a fixed summation order, whatever order the jobs came in
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile is the nearest-rank-below quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// print writes every metric by name with its unit, in declaration
// order, then nothing else: the caller prints the result line.
func (r *runResult) print(w io.Writer) {
	kind, defs := "end-to-end", endToEnd
	if r.Traced {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "%s  seed=%d scale=%s trace=%t  %s metrics  reps=%d setups=%d  GOMAXPROCS=%d\n",
		r.Workload, r.Seed, r.Scale, r.Traced, kind, r.Reps, r.Setups, r.GOMAXPROCS)
	fmt.Fprintf(w, "  inputs_digest=%s result_digest=%s ops=%d ops_failed=%d\n", r.InputsDigest, r.ResultDigest, r.Ops, r.OpsFailed)
	for _, d := range defs {
		mv := r.Metrics[d.Name]
		n := max(len(mv.Samples), 1)
		fmt.Fprintf(w, "  %-32s %14.6g %-6s (median of %d)\n", d.Name, mv.Value, mv.Unit, n)
	}
	if r.Traced {
		fmt.Fprintf(w, "  note: sim.speedup_*_vs_aalo and fidelity_gap_* compare against the abstract's %.2fx / %.1fx; the model is UNVALIDATED —\n"+
			"        inputs are FB-like synthetic traces and the repo holds no reference results.\n", paperSpeedupP50, paperSpeedupP90)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// resultLine is the contract's last line of standard output.
func (r *runResult) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Ops, r.OpsFailed, map[string]mv{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in this file
	}
	return string(b)
}
