// saath-sim replays a CoFlow trace under one or more scheduling
// policies and reports per-policy CCT statistics and speedups. The
// scheduler × seed grid is declared as an internal/study Study and
// fans out over a bounded worker pool; output is identical at any
// -parallel setting. It is the one binary that runs a study: in this
// process, as one shard of several, or merged from shard dumps.
//
// Usage:
//
//	saath-sim -trace fb -sched saath,aalo
//	saath-sim -trace path/to/trace.txt -sched saath,varys -delta 8ms
//	saath-sim -trace osp -sched aalo,saath -seed 1,2,3 -parallel 8
//	saath-sim -trace fb -json results.json
//
// The -trace flag accepts "fb" (synthetic Facebook-like), "osp"
// (synthetic OSP-like), "incast" / "broadcast" (synthetic fan-in /
// fan-out hotspot workloads), or a path to a file in the
// coflow-benchmark format. When more than one scheduler is given, the
// first is the baseline for speedup reporting. -seed takes a
// comma-separated list: synthetic workloads are regenerated per seed
// and statistics pool across the draws.
//
// -metrics streams per-interval telemetry (queue occupancy, fabric
// utilization, head-of-line blocking, contention histograms,
// queue-transition counters against the configured K/S/E ladder, and
// per-port occupancy heatmaps) out of every simulation and prints the
// condensed tables. -metrics-out exports it as JSON (or CSV with a .csv
// path), with each series' points and progress series, collected only
// then. The export is byte-identical at any -parallel setting:
//
//	saath-sim -trace incast -sched aalo,saath -metrics -metrics-out m.json
//
// -study runs a named study from the built-in catalog (-studies lists
// them) instead of the flag-built grid, rendering its derived tables.
// Catalog studies that declare the testbed's job body (overload,
// coordinator-latency) run through the real coordinator on the same
// pool, and print its wall-clock measurements after the tables.
//
// The paper's figures are catalog studies too (fig1, fig2, fig3, fig9,
// fig10, fig13, fig14, fig17, ablations, and the testbed's fig15), and
// so is the one-command capacity answer — per-cell throughput/latency
// plus saturation-knee detection over the offered load:
//
//	saath-sim -study fig9
//	saath-sim -study capacity
//
// Observability (internal/obs) is out-of-band: none of these flags
// changes a single byte of the study output. -obs-out writes the run's execution manifest (per-job phase spans
// and engine introspection counters) as JSON. -progress prints a
// throttled aggregate line (done/total, jobs/s, ETA, per-variant
// completion) rather than one line per job. -cpuprofile, -memprofile and
// -runtime-trace capture the standard Go profiles of the whole run.
//
// Any study — flag-built or named — shards across processes: -shard
// i/n simulates only the i-th of n stripes of the grid and writes a
// mergeable partial dump into -out; -merge reads the dumps back (run
// with the SAME workload/scheduler flags or -study name) and renders
// output byte-identical to the unsharded run. A shard run writes no
// -json or -metrics-out file; its -merge run does:
//
//	saath-sim -trace fb -seed 1,2 -shard 0/2 -out shards   # machine A
//	saath-sim -trace fb -seed 1,2 -shard 1/2 -out shards   # machine B
//	saath-sim -trace fb -seed 1,2 -merge shards            # anywhere
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/trace"

	_ "saath/internal/core"
	_ "saath/internal/sched/aalo"
	_ "saath/internal/sched/clair"
	_ "saath/internal/sched/uctcp"
	_ "saath/internal/sched/varys"
	_ "saath/internal/testbed" // registers the coordinator-backed catalog studies
)

func main() {
	var (
		traceArg = flag.String("trace", "fb", `workload: "fb", "osp", "incast", "broadcast", or a coflow-benchmark file path`)
		seeds    = flag.String("seed", "1", "comma-separated seeds; each regenerates the synthetic workload")
		scheds   = flag.String("sched", "aalo,saath", "comma-separated schedulers; first is the speedup baseline")
		delta    = flag.Duration("delta", 8*time.Millisecond, "schedule recomputation interval δ")
		rateGbps = flag.Float64("rate", 1.0, "per-port rate in Gbps")
		arrival  = flag.Float64("A", 1.0, "arrival-time speedup factor (Fig 14d); 2 = arrivals 2x faster")
		start    = flag.String("S", "", `start queue threshold, e.g. "100MB" (default 10MB)`)
		growth   = flag.Float64("E", 10, "queue threshold growth factor")
		queues   = flag.Int("K", 10, "number of priority queues")
		deadline = flag.Float64("d", 2, "starvation deadline factor")
		parallel = flag.Int("parallel", runtime.NumCPU(), "simulations running at once")
		jsonPath = flag.String("json", "", `write per-run results as JSON to this file ("-" for stdout); a -shard run writes none, its -merge run does`)
		progress = flag.Bool("progress", false, "print a throttled aggregate progress line to stderr")
		list     = flag.Bool("list", false, "list registered schedulers and exit")

		obsOut = flag.String("obs-out", "", `write the run's observability manifest (per-job spans + engine counters) as JSON ("-" for stdout)`)

		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this path (captured at exit, after GC)")
		runtimeTrace = flag.String("runtime-trace", "", "write a Go runtime execution trace to this path")

		metrics     = flag.Bool("metrics", false, "collect per-interval telemetry (queue occupancy, contention histograms)")
		metricsStep = flag.Duration("metrics-interval", 0, "telemetry sampling interval (rounded to a multiple of δ; 0 = every interval)")
		metricsOut  = flag.String("metrics-out", "", `write per-job telemetry to this path (.csv for CSV, otherwise JSON; "-" for stdout); implies -metrics. A flag-built grid then also collects each series' points and progress series; a -study exports what the study declares. A -shard run collects the points but writes no file: give the flag to its -merge run too`)

		studyName = flag.String("study", "", "run a registered study from the catalog instead of the flag-built grid (see -studies)")
		studies   = flag.Bool("studies", false, "list registered studies and exit")
		shardArg  = flag.String("shard", "", `simulate only shard i of n ("i/n") and write a mergeable dump into -out`)
		outDir    = flag.String("out", "shards", "directory -shard writes its partial dump into")
		mergeDir  = flag.String("merge", "", "merge shard dumps from this directory (same flags / -study as the shard runs) instead of simulating")
	)
	flag.Parse()

	// Graceful shutdown: SIGINT/SIGTERM cancels the sweep; completed
	// jobs still flush (partial -obs-out manifest, profiles) and the
	// process exits non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *list {
		for _, n := range sched.Names() {
			fmt.Println(n)
		}
		return
	}
	if *studies {
		for _, n := range study.Names() {
			fmt.Printf("%-20s %s\n", n, study.Describe(n))
		}
		return
	}
	if *metricsOut != "" {
		*metrics = true
	}
	stop, perr := obs.Profiles{CPU: *cpuProfile, Mem: *memProfile, Trace: *runtimeTrace}.Start()
	if perr != nil {
		fatal(perr)
	}
	stopProfiles = stop

	var (
		st  *study.Study
		err error
	)
	fg := flagGrid{
		traceArg: *traceArg, seeds: *seeds, scheds: *scheds,
		delta: *delta, rateGbps: *rateGbps, arrival: *arrival,
		start: *start, growth: *growth, queues: *queues, deadline: *deadline,
		metrics: *metrics, points: *metricsOut != "", metricsStep: *metricsStep,
		describe: *mergeDir == "", // the banner line, skipped when only merging
	}
	if *studyName != "" {
		st, err = study.Build(*studyName)
	} else {
		st, err = studyFromFlags(fg)
	}
	if err != nil {
		fatal(err)
	}
	out := outputs{
		fromCLI: *studyName == "", metrics: *metrics,
		jsonPath: *jsonPath, metricsOut: *metricsOut,
	}
	// Merge mode: no simulation — reassemble shard dumps and render
	// exactly what the unsharded run would have.
	if *mergeDir != "" {
		if *obsOut != "" {
			fmt.Fprintln(os.Stderr, "saath-sim: -obs-out needs a live run; merge only reassembles dumps")
		}
		res, err := study.MergeShardDir(st, *mergeDir)
		if err != nil {
			if *studyName == "" {
				err = pointsHint(err, fg, *mergeDir)
			}
			fatal(err)
		}
		out.render(res)
		if res.Err() != nil {
			exit(1)
		}
		exit(0)
	}

	// In-process: with -shard this stripe of the grid, otherwise the one
	// stripe that is all of it.
	var observer *obs.Recorder
	if *obsOut != "" {
		observer = obs.NewRecorder(st.Name())
	}
	sharded := *shardArg != ""
	sh := study.Sharded{Index: 0, Count: 1}
	if sharded {
		if sh, err = study.ParseShard(*shardArg); err != nil {
			fatal(err)
		}
	}
	sh.Pool = study.Pool{
		Parallel: *parallel, Observer: observer,
		Progress: sweep.CLIProgress(*progress, os.Stderr, sh.Jobs(st.Jobs())),
	}
	res, err := st.Run(ctx, sh)
	if err != nil {
		fatal(err)
	}
	ran := res.Sweep()
	if sharded {
		// The dump is written before job errors are reported: error
		// entries round-trip through the merge, and completed sibling
		// simulations must not be discarded over one failed cell.
		path, err := res.WriteShardFile(*outDir, sh)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("shard %d/%d: %d/%d jobs in %.1fs -> %s\n",
			sh.Index, sh.Count, ran.Completed(), len(ran.Jobs), ran.Elapsed.Seconds(), path)
	} else {
		fmt.Printf("%d/%d simulations in %.1fs (-parallel %d)\n",
			ran.Completed(), len(ran.Jobs), ran.Elapsed.Seconds(), *parallel)
	}
	for _, jr := range ran.Failed() {
		fmt.Fprintln(os.Stderr, "saath-sim:", jr.Err)
	}
	// Flush the manifest before rendering: an interrupted run keeps its
	// partial observability even when table assembly can't proceed.
	if *obsOut != "" {
		if err := writeFile(*obsOut, observer.Manifest().WriteJSON); err != nil {
			fatal(err)
		}
	}
	if !sharded {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "saath-sim: interrupted; partial manifest and profiles flushed, skipping tables")
			exit(1)
		}
		out.render(res)
	}
	// The coordinator's measurements, when the study's jobs went through
	// it: wall-clock of this machine — informational, never part of the
	// deterministic tables above.
	if rep := ran.RuntimeReport(); len(rep.Records) > 0 {
		fmt.Println()
		must(obs.RuntimeTable("coordinator runtime (wall-clock, out-of-band)", rep).Render(os.Stdout))
	}
	if res.Err() != nil {
		exit(1)
	}
	exit(0)
}

// pointsHint names -metrics-out as the cause of a failed merge of a
// flag-built grid when the shards were run on the other side of it:
// -metrics-out decides whether the grid collects series points, which
// the grid fingerprint covers. If the grid with points flipped merges,
// that was the only fault; any other failure keeps err.
func pointsHint(err error, fg flagGrid, dir string) error {
	fg.points = !fg.points
	fg.metrics = fg.metrics || fg.points // -metrics-out implies -metrics
	st, ferr := studyFromFlags(fg)
	if ferr != nil {
		return err
	}
	if _, ferr := study.MergeShardDir(st, dir); ferr != nil {
		return err
	}
	with := "without"
	if fg.points {
		with = "with"
	}
	return fmt.Errorf("%w: the shards were run %s -metrics-out; -merge needs the same flag", err, with)
}

// flagGrid carries the flag values studyFromFlags compiles.
type flagGrid struct {
	traceArg, seeds, scheds string
	delta                   time.Duration
	rateGbps, arrival       float64
	start                   string
	growth, deadline        float64
	queues                  int
	metrics                 bool
	points                  bool // -metrics-out: collect series points and progress too
	metricsStep             time.Duration
	describe                bool
}

// studyFromFlags declares the CLI's ad-hoc grid as a Study, named
// after the workload so shard dumps from the same flag set find each
// other. The first scheduler becomes the study baseline when more than
// one is given (read it back with Study.Baseline).
func studyFromFlags(fg flagGrid) (*study.Study, error) {
	seedList, err := parseSeeds(fg.seeds)
	if err != nil {
		return nil, err
	}
	params := sched.DefaultParams()
	params.Queues.NumQueues = fg.queues
	params.Queues.Growth = fg.growth
	params.DeadlineFactor = fg.deadline
	if fg.start != "" {
		b, err := parseBytes(fg.start)
		if err != nil {
			return nil, err
		}
		params.Queues.StartThreshold = b
	}
	cfg := sim.Config{
		Delta:    coflow.Time(fg.delta.Microseconds()) * coflow.Microsecond,
		PortRate: coflow.GbpsRate(fg.rateGbps),
	}

	// Describe the workload using the first seed's draw.
	first, err := loadTrace(fg.traceArg, seedList[0])
	if err != nil {
		return nil, err
	}
	if fg.arrival != 1 {
		first.ScaleArrivals(1 / fg.arrival)
	}
	if fg.describe {
		summary := trace.Summarize(first)
		fmt.Printf("trace %s: %d coflows, %d ports, %.1f GB total, mean width %.1f\n",
			first.Name, summary.NumCoFlows, summary.NumPorts,
			float64(summary.TotalBytes)/float64(coflow.GB), summary.MeanWidth)
	}

	var names []string
	for _, n := range strings.Split(fg.scheds, ",") {
		names = append(names, strings.TrimSpace(n))
	}

	// The grid name carries the arrival factor: it is the one flag
	// applied inside the trace generator (invisible to params/config),
	// so putting it in the trace name lands it in every Job.Key and
	// thus in the shard fingerprint — a -A drift between shard runs
	// fails the merge instead of silently mixing workloads.
	gridName := first.Name
	if fg.arrival != 1 {
		gridName = fmt.Sprintf("%s@A=%g", first.Name, fg.arrival)
	}

	var source sweep.TraceSource
	if isSynthetic(fg.traceArg) {
		arrival := fg.arrival
		traceArg := fg.traceArg
		source = sweep.SynthSource(gridName, func(seed int64) *trace.Trace {
			tr, _ := loadTrace(traceArg, seed) // synthetic: cannot fail
			if arrival != 1 {
				tr.ScaleArrivals(1 / arrival)
			}
			return tr
		})
	} else {
		// A file trace is one fixed workload: extra seeds would just
		// replay identical simulations and triple-count the pooled
		// statistics, so collapse the seed list.
		if len(seedList) > 1 {
			fmt.Fprintf(os.Stderr, "saath-sim: %s is a fixed trace; ignoring extra seeds %v\n",
				fg.traceArg, seedList[1:])
			seedList = seedList[:1]
		}
		source = sweep.FixedTrace(first)
		source.Name = gridName
	}
	opts := []study.Option{
		study.WithTraces(source),
		study.WithSchedulers(names...),
		study.WithSeeds(seedList...),
		study.WithParams(params),
		study.WithSimConfig(cfg),
	}
	if fg.metrics {
		spec := telemetry.Spec{
			Enabled: true,
			Stride:  metricsStride(fg.metricsStep, cfg.Delta),
			// Observe queue transitions against the ladder the CLI's
			// K/S/E flags configure (Aalo's total-bytes placement, the
			// paper's Fig. 4 baseline view), plus the per-port heatmaps.
			QueueTransitions: true,
			TransitionQueues: params.Queues,
			PortHeatmap:      true,
		}
		if fg.points {
			// What only the raw export reads: each series' 256-point exact
			// tail and 256-point whole-run sample, and 4 CoFlows' progress.
			spec.RingCap, spec.ReservoirCap, spec.ProgressCoFlows = 256, 256, 4
		}
		opts = append(opts, study.WithTelemetry(spec))
	}
	if len(names) > 1 {
		opts = append(opts, study.WithBaseline(names[0]))
	}
	st, err := study.New(gridName, opts...)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// outputs is what a complete result is rendered to.
type outputs struct {
	fromCLI    bool // flag-built grid: the classic table set
	metrics    bool
	jsonPath   string
	metricsOut string
}

// render prints the study's tables and writes the requested exports.
// Flag-built grids keep the CLI's classic table set; named studies
// render their own derived tables.
func (o outputs) render(res *study.Result) {
	agg := res.Summary()
	if o.fromCLI {
		must(agg.CCTTable("per-scheduler CCT").Render(os.Stdout))
		if baseline := res.Study().Baseline(); baseline != "" {
			must(agg.SpeedupTable(fmt.Sprintf("per-coflow speedup over %s", baseline), baseline).Render(os.Stdout))
		}
		if o.metrics {
			must(agg.TelemetryTable("telemetry (per-interval)").Render(os.Stdout))
			must(agg.QueueTransitionTable("queue transitions (Fig. 4-style)").Render(os.Stdout))
			must(agg.PortHeatmapTable("per-port occupancy heatmap (hottest ports)", 8).Render(os.Stdout))
		}
	} else {
		tables, err := res.Tables()
		must(err)
		for _, t := range tables {
			must(t.Render(os.Stdout))
			fmt.Println()
		}
	}
	if o.jsonPath != "" {
		must(writeFile(o.jsonPath, agg.WriteJSON))
	}
	if o.metricsOut != "" {
		// CSV when the path ends in .csv, JSON otherwise.
		write := agg.WriteMetricsJSON
		if strings.HasSuffix(strings.ToLower(o.metricsOut), ".csv") {
			write = agg.WriteMetricsCSV
		}
		must(writeFile(o.metricsOut, write))
	}
}

// writeFile streams one export into path ("-" for stdout), propagating
// the Close error so a failed flush cannot exit 0.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// metricsStride converts the -metrics-interval duration into a
// sampling stride in δ units (at least 1).
func metricsStride(step time.Duration, delta coflow.Time) int {
	if step <= 0 || delta <= 0 {
		return 1
	}
	stride := int((coflow.Time(step.Microseconds())*coflow.Microsecond + delta - 1) / delta)
	if stride < 1 {
		stride = 1
	}
	return stride
}

// isSynthetic reports whether the -trace argument names a seeded
// synthetic family (regenerated per sweep seed) rather than a file.
func isSynthetic(arg string) bool {
	switch arg {
	case "fb", "osp", "incast", "broadcast":
		return true
	}
	return false
}

// parseSeeds parses a comma-separated seed list.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func loadTrace(arg string, seed int64) (*trace.Trace, error) {
	switch arg {
	case "fb":
		return trace.SynthFB(seed), nil
	case "osp":
		return trace.SynthOSP(seed), nil
	case "incast":
		return trace.SynthIncast(seed), nil
	case "broadcast":
		return trace.SynthBroadcast(seed), nil
	default:
		return trace.ParseFile(arg)
	}
}

func parseBytes(s string) (coflow.Bytes, error) {
	var v float64
	var unit string
	if _, err := fmt.Sscanf(s, "%f%s", &v, &unit); err != nil {
		return 0, fmt.Errorf("bad size %q (want e.g. 100MB)", s)
	}
	switch strings.ToUpper(unit) {
	case "KB":
		return coflow.Bytes(v * float64(coflow.KB)), nil
	case "MB":
		return coflow.Bytes(v * float64(coflow.MB)), nil
	case "GB":
		return coflow.Bytes(v * float64(coflow.GB)), nil
	case "TB":
		return coflow.Bytes(v * float64(coflow.TB)), nil
	default:
		return 0, fmt.Errorf("unknown unit %q", unit)
	}
}

// stopProfiles flushes any -cpuprofile/-memprofile/-runtime-trace
// outputs; every exit path goes through exit() so the profiles survive
// os.Exit (which skips deferred calls).
var stopProfiles = func() error { return nil }

func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "saath-sim:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "saath-sim:", err)
	exit(1)
}

// must is fatal for the render path, where every error ends the run.
func must(err error) {
	if err != nil {
		fatal(err)
	}
}
