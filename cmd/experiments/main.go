// experiments regenerates every table and figure of the paper's
// evaluation. With -scale quick (default) the workloads are shrunk to
// run in seconds; -scale full uses the published trace dimensions.
//
// Usage:
//
//	experiments                        # all simulation figures, quick
//	experiments -only fig9,fig10       # a subset
//	experiments -testbed               # include the prototype (slow)
//	experiments -scale full            # published scale (minutes)
//	experiments -parallel 16 -progress # fan simulations out, show jobs
//	experiments -json out/             # also export tables as JSON
//
// Named studies from the internal/study catalog run with -study
// (-studies lists them) and shard across processes: -shard i/n
// simulates one stripe into a mergeable dump under -out, and -merge
// reassembles the dumps into output byte-identical to an unsharded
// run:
//
//	experiments -study headline -shard 0/2 -out shards
//	experiments -study headline -shard 1/2 -out shards
//	experiments -study headline -merge shards
//
// Observability is out-of-band and never changes output bytes:
// -progress prints a throttled aggregate line (done/total, jobs/s,
// ETA, per-variant completion); -obs-out (with -study) writes the
// run's manifest of per-job phase spans and engine counters as JSON;
// -cpuprofile, -memprofile and -runtime-trace capture the standard Go
// profiles of the whole run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"saath/internal/experiments"
	"saath/internal/obs"
	"saath/internal/report"
	"saath/internal/study"
	"saath/internal/sweep"

	_ "saath/internal/testbed" // registers the testbed runner + its studies
)

func main() {
	var (
		scale    = flag.String("scale", "quick", `"quick" or "full"`)
		only     = flag.String("only", "", "comma-separated experiment ids (fig1..fig17, table2, telemetry, ablations)")
		testbed  = flag.Bool("testbed", false, "also run the prototype-backed Fig 15 / Fig 16 (slow)")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory (for plotting)")
		jsonDir  = flag.String("json", "", "also write each table as JSON into this directory")
		parallel = flag.Int("parallel", runtime.NumCPU(), "simulation worker pool size for figure sweeps")
		progress = flag.Bool("progress", false, "print a throttled aggregate progress line to stderr")

		obsOut       = flag.String("obs-out", "", `with -study: write the observability manifest (per-job spans + engine counters) as JSON ("-" for stdout)`)
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this path (captured at exit, after GC)")
		runtimeTrace = flag.String("runtime-trace", "", "write a Go runtime execution trace to this path")

		studyName = flag.String("study", "", "run a registered study from the catalog instead of the figures (see -studies)")
		studies   = flag.Bool("studies", false, "list registered studies and exit")
		shardArg  = flag.String("shard", "", `with -study: simulate only shard i of n ("i/n") into a dump under -out`)
		outDir    = flag.String("out", "shards", "directory -shard writes its partial dump into")
		mergeDir  = flag.String("merge", "", "with -study: merge shard dumps from this directory instead of simulating")
	)
	flag.Parse()

	if *studies {
		for _, n := range study.Names() {
			fmt.Printf("%-20s %s\n", n, study.Describe(n))
		}
		return
	}
	stop, perr := obs.Profiles{CPU: *cpuProfile, Mem: *memProfile, Trace: *runtimeTrace}.Start()
	if perr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", perr)
		os.Exit(1)
	}
	stopProfiles = stop

	// Graceful shutdown: SIGINT/SIGTERM cancels the sweep context;
	// completed jobs flush (partial -obs-out manifest, profiles) and the
	// process exits non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *studyName != "" {
		if err := runStudy(ctx, studyCLI{
			name: *studyName, shardArg: *shardArg, mergeDir: *mergeDir, outDir: *outDir,
			csvDir: *csvDir, jsonDir: *jsonDir, parallel: *parallel, progress: *progress,
			obsOut: *obsOut,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(1)
		}
		exit(0)
	}
	if *shardArg != "" || *mergeDir != "" || *obsOut != "" {
		fmt.Fprintln(os.Stderr, "experiments: -shard/-merge/-obs-out require -study (figures are assembled in-process)")
		exit(1)
	}
	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				exit(1)
			}
		}
	}

	sc := experiments.ScaleQuick
	if *scale == "full" {
		sc = experiments.ScaleFull
	}
	env := experiments.NewEnv(sc)
	env.Parallel = *parallel
	env.Ctx = ctx
	// Figure sweeps are built lazily per experiment, so the meter learns
	// the job groups as completions arrive (nil job list).
	env.Progress = sweep.CLIProgress(*progress, os.Stderr, nil)

	type exp struct {
		id string
		fn func() ([]*report.Table, error)
	}
	all := []exp{
		{"fig1", env.Fig1},
		{"fig2", env.Fig2},
		{"fig3", env.Fig3},
		{"fig9", env.Fig9},
		{"fig10", env.Fig10},
		{"fig11", env.Fig11},
		{"fig12", env.Fig12},
		{"fig13", env.Fig13},
		{"fig14", env.Fig14},
		{"table2", env.Table2},
		{"fig17", env.Fig17},
		{"telemetry", env.Telemetry},
		{"ablations", func() ([]*report.Table, error) {
			var out []*report.Table
			for _, fn := range []func() ([]*report.Table, error){
				env.AblationWorkConservation, env.AblationContentionMetric, env.AblationDynamics,
			} {
				t, err := fn()
				if err != nil {
					return nil, err
				}
				out = append(out, t...)
			}
			return out, nil
		}},
	}
	if *testbed {
		cfg := experiments.DefaultTestbedConfig()
		all = append(all,
			exp{"fig15", func() ([]*report.Table, error) { return experiments.Fig15(cfg) }},
			exp{"fig16", func() ([]*report.Table, error) { return experiments.Fig16(cfg) }},
		)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		tables, err := e.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			exit(1)
		}
		fmt.Printf("\n################ %s (%.1fs) ################\n", e.id, time.Since(start).Seconds())
		for i, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				exit(1)
			}
			fmt.Println()
			if *csvDir != "" {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_%02d.csv", e.id, i))
				if err := writeTable(path, t.CSV); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: csv:", err)
					exit(1)
				}
			}
			if *jsonDir != "" {
				path := filepath.Join(*jsonDir, fmt.Sprintf("%s_%02d.json", e.id, i))
				if err := writeTable(path, t.JSON); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: json:", err)
					exit(1)
				}
			}
		}
	}
	exit(0)
}

// stopProfiles flushes any -cpuprofile/-memprofile/-runtime-trace
// outputs; exit paths go through exit() so the profiles survive
// os.Exit (which skips deferred calls).
var stopProfiles = func() error { return nil }

func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// studyCLI carries the flag values of one -study invocation.
type studyCLI struct {
	name                       string
	shardArg, mergeDir, outDir string
	csvDir, jsonDir            string
	obsOut                     string
	parallel                   int
	progress                   bool
}

// runStudy executes (or shards, or merges) one registered study.
func runStudy(ctx context.Context, c studyCLI) error {
	st, err := study.Build(c.name)
	if err != nil {
		return err
	}
	var observer *obs.Recorder
	if c.obsOut != "" {
		if c.mergeDir != "" {
			return fmt.Errorf("-obs-out needs a live run; merge only reassembles dumps")
		}
		observer = obs.NewRecorder(st.Name())
	}
	// newRunner builds the study's execution backend — the in-process
	// Pool by default, the coordinator-backed testbed when the study
	// declares it (WithRunner).
	newRunner := func(progress sweep.ProgressFunc) (study.Runner, error) {
		return study.NewRunnerFor(st, study.RunnerOpts{
			Parallel: c.parallel, Progress: progress, Observer: observer,
		})
	}
	writeObs := func() error {
		if c.obsOut == "" {
			return nil
		}
		m := observer.Manifest()
		if c.obsOut == "-" {
			return m.WriteJSON(os.Stdout)
		}
		return writeTable(c.obsOut, m.WriteJSON)
	}
	// printRuntime renders out-of-band coordinator measurements when
	// the backend took them (testbed runner). Wall-clock of this
	// machine — never part of the deterministic tables.
	printRuntime := func(r study.Runner) error {
		rr, ok := r.(study.RuntimeReporter)
		if !ok {
			return nil
		}
		rep := rr.RuntimeReport()
		if len(rep.Records) == 0 {
			return nil
		}
		fmt.Println()
		return obs.RuntimeTable("coordinator runtime (wall-clock, out-of-band)", rep).Render(os.Stdout)
	}
	var res *study.Result
	var runner study.Runner
	switch {
	case c.mergeDir != "":
		if res, err = study.MergeShardDir(st, c.mergeDir); err != nil {
			return err
		}
	case c.shardArg != "":
		sh, err := study.ParseShard(c.shardArg)
		if err != nil {
			return err
		}
		if runner, err = newRunner(sweep.CLIProgress(c.progress, os.Stderr, sh.Jobs(st.Jobs()))); err != nil {
			return err
		}
		sh.Runner = runner
		if res, err = st.Run(ctx, sh); err != nil {
			return err
		}
		// Write the dump before reporting job errors: error entries
		// round-trip through the merge (Result.Err resurfaces them),
		// and hours of completed sibling simulations must not be
		// discarded over one failed cell.
		path, err := res.WriteShardFile(c.outDir, sh)
		if err != nil {
			return err
		}
		fmt.Printf("study %s shard %d/%d: %d jobs -> %s\n",
			c.name, sh.Index, sh.Count, len(res.Sweep().Jobs), path)
		if err := writeObs(); err != nil {
			return err
		}
		if err := printRuntime(runner); err != nil {
			return err
		}
		return res.Err()
	default:
		if runner, err = newRunner(sweep.CLIProgress(c.progress, os.Stderr, st.Jobs())); err != nil {
			return err
		}
		if res, err = st.Run(ctx, runner); err != nil {
			return err
		}
	}
	if err := writeObs(); err != nil {
		return err
	}
	if err := res.Err(); err != nil {
		return err
	}
	tables, err := res.Tables()
	if err != nil {
		return err
	}
	for i, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if c.csvDir != "" {
			if err := exportStudyTable(c.csvDir, c.name, i, "csv", t.CSV); err != nil {
				return err
			}
		}
		if c.jsonDir != "" {
			if err := exportStudyTable(c.jsonDir, c.name, i, "json", t.JSON); err != nil {
				return err
			}
		}
	}
	if runner != nil {
		if err := printRuntime(runner); err != nil {
			return err
		}
	}
	return nil
}

// exportStudyTable writes one study table into dir (created if
// needed), mirroring the figure path's <id>_<NN>.<ext> naming.
func exportStudyTable(dir, study string, i int, ext string, export func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeTable(filepath.Join(dir, fmt.Sprintf("%s_%02d.%s", study, i, ext)), export)
}

// writeTable creates path and streams one table export into it.
func writeTable(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = export(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
