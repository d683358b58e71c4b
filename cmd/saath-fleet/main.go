// saath-fleet runs a registered study across a fleet of worker
// processes. It partitions the study's grid into striped shards,
// launches them on worker slots through the local-exec backend (a
// saath-sim binary per shard, results streamed back over stdout), and
// merges the dumps into output byte-identical to a single-process run
// — at any worker count, task partition, or retry history.
//
// Usage:
//
//	saath-fleet -study headline
//	saath-fleet -study headline -workers 8 -tasks 32
//	saath-fleet -study capacity -progress -obs-out fleet.json
//	saath-fleet -study headline -chaos kill=0 -stall 5s   # fault drill
//
// Robustness: each shard attempt runs under a deadline and a stall
// timeout (liveness judged by the worker's event stream); a failed
// attempt retries with bounded deterministic backoff, re-queued onto
// whichever surviving worker slot frees up first; a dump whose grid
// fingerprint does not match the driver's study is rejected as drift.
// The full per-shard attempt history — outcomes, retries, backoff,
// stragglers, schedule-latency summaries — lands in the obs manifest's
// "fleet" section (-obs-out).
//
// -chaos injects worker faults (kill=N, hang=N, corrupt=N, slow=N;
// comma-separated) on the first attempt of the named shard — drills
// for the recovery paths, recorded in the fleet report.
//
// -bin points at the worker executable; by default saath-fleet looks
// for saath-sim next to its own binary, then in PATH.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"saath/internal/fleet"
	"saath/internal/obs"
	"saath/internal/study"
	"saath/internal/sweep"

	_ "saath/internal/core"
	_ "saath/internal/sched/aalo"
	_ "saath/internal/sched/clair"
	_ "saath/internal/sched/uctcp"
	_ "saath/internal/sched/varys"
	_ "saath/internal/testbed" // register the testbed runner + studies
)

func main() {
	var (
		studyName = flag.String("study", "", "registered study to run (see -studies)")
		studies   = flag.Bool("studies", false, "list registered studies and exit")

		workers  = flag.Int("workers", 4, "concurrent worker slots")
		tasks    = flag.Int("tasks", 0, "shard partition size (0 = 4x workers, capped at the grid)")
		wpar     = flag.Int("worker-parallel", 1, "in-process parallelism per worker")
		retries  = flag.Int("retries", 3, "max attempts per shard, including the first")
		backoff  = flag.Duration("backoff", 250*time.Millisecond, "base retry backoff (doubles per attempt, deterministic jitter)")
		deadline = flag.Duration("deadline", 10*time.Minute, "per-attempt wall-clock deadline")
		stall    = flag.Duration("stall", 30*time.Second, "kill an attempt with no wire event for this long")

		bin       = flag.String("bin", "", "worker executable (default: saath-sim next to this binary, then PATH)")
		chaosSpec = flag.String("chaos", "", "inject worker faults: kill=N,hang=N,corrupt=N,slow=N (shard N, first attempt)")
		slowDelay = flag.Duration("slow-delay", 20*time.Millisecond, "per-event delay for the slow chaos fault")

		progress = flag.Bool("progress", false, "print a throttled aggregate progress line to stderr")
		verbose  = flag.Bool("v", false, "narrate driver decisions (launches, retries, kills) to stderr")
		jsonPath = flag.String("json", "", `write the merged study aggregate as JSON ("-" for stdout)`)
		obsOut   = flag.String("obs-out", "", `write the fleet manifest (totals + per-shard attempt report) as JSON ("-" for stdout)`)
	)
	flag.Parse()

	if *studies {
		for _, n := range study.Names() {
			fmt.Printf("%-20s %s\n", n, study.Describe(n))
		}
		return
	}
	if *studyName == "" {
		fatal(fmt.Errorf("-study is required (fleet drives registered studies; -studies lists them)"))
	}
	st, err := study.Build(*studyName)
	if err != nil {
		fatal(err)
	}
	chaos, err := fleet.ParseChaos(*chaosSpec)
	if err != nil {
		fatal(err)
	}
	chaos.SlowDelay = *slowDelay
	workerBin, err := findWorker(*bin)
	if err != nil {
		fatal(err)
	}

	// Graceful shutdown: SIGINT/SIGTERM cancels the run; in-flight
	// workers are killed, the fleet report still flushes, exit is
	// non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := fleet.Options{
		Backend:        &fleet.LocalExec{Bin: workerBin},
		Workers:        *workers,
		Tasks:          *tasks,
		MaxAttempts:    *retries,
		BackoffBase:    *backoff,
		Deadline:       *deadline,
		StallTimeout:   *stall,
		WorkerParallel: *wpar,
		Chaos:          chaos,
	}
	if *progress {
		opts.Progress = sweep.NewProgressMeter(os.Stderr, 0)
		opts.Progress.SetJobs(st.Jobs())
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	start := time.Now()
	out, runErr := fleet.Run(ctx, st, opts)
	// The report flushes even on failure — it is the forensics.
	if out != nil && *obsOut != "" {
		if err := writeManifest(*obsOut, out.Manifest(st.Name())); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}

	res := out.Result
	// res.Sweep() is nil for merged results — job count comes from the grid.
	fmt.Printf("study %s: %d jobs on %d workers (%d shards, %d retries) in %.1fs\n",
		st.Name(), len(st.Jobs()), out.Report.Workers, out.Report.Tasks,
		out.Report.Retries, time.Since(start).Seconds())
	if err := res.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "saath-fleet:", err)
	}
	tables, err := res.Tables()
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *jsonPath != "" {
		if err := exportJSON(*jsonPath, res); err != nil {
			fatal(err)
		}
	}
	if res.Err() != nil {
		os.Exit(1)
	}
}

// findWorker resolves the worker binary: explicit -bin, saath-sim next
// to this executable, then PATH.
func findWorker(explicit string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "saath-sim")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if path, err := exec.LookPath("saath-sim"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("no worker binary: build saath-sim next to saath-fleet or pass -bin")
}

func writeManifest(path string, m *obs.Manifest) error {
	if path == "-" {
		return m.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = m.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func exportJSON(path string, res *study.Result) error {
	if path == "-" {
		return res.Summary().WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = res.Summary().WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "saath-fleet:", err)
	os.Exit(1)
}
