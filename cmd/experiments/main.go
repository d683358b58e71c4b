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
// Figures only: named studies from the internal/study catalog —
// sharded, merged or observed — are saath-sim's (-study).
//
// Observability is out-of-band and never changes output bytes:
// -progress prints a throttled aggregate line (done/total, jobs/s,
// ETA, per-variant completion); -cpuprofile, -memprofile and
// -runtime-trace capture the standard Go profiles of the whole run.
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
	"saath/internal/sweep"
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

		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this path (captured at exit, after GC)")
		runtimeTrace = flag.String("runtime-trace", "", "write a Go runtime execution trace to this path")
	)
	flag.Parse()

	stop, perr := obs.Profiles{CPU: *cpuProfile, Mem: *memProfile, Trace: *runtimeTrace}.Start()
	if perr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", perr)
		os.Exit(1)
	}
	stopProfiles = stop

	// Graceful shutdown: SIGINT/SIGTERM cancels the sweep context; the
	// profiles flush and the process exits non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

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
