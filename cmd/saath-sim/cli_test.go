package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"
)

// The CLI tests drive the real main(): TestMain re-execs this test
// binary as saath-sim when the child env var is set, so a child sees
// the test-registered studies below.
const childEnv = "SAATH_SIM_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main() // leaves through exit()
		return
	}
	os.Exit(m.Run())
}

// cliSource is a tiny synthetic workload; coflows sizes a job.
func cliSource(name string, ports, coflows int) sweep.TraceSource {
	return sweep.SynthSource(name, func(seed int64) *trace.Trace {
		return trace.Synthesize(trace.SynthConfig{
			Seed: seed, NumPorts: ports, NumCoFlows: coflows,
			MeanInterArrival: 20 * coflow.Millisecond,
			SingleFlowFrac:   0.25, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
			SmallFracNarrow: 0.8, SmallFracWide: 0.5,
			MinSmall: 100 * coflow.KB, MaxSmall: coflow.MB,
			MinLarge: coflow.MB, MaxLarge: 20 * coflow.MB,
		}, name)
	})
}

func init() {
	// A Fig 9-shaped study at test scale — two workloads × the paper's
	// four schedulers — with three seeds and a CCT CDF on top, so the
	// re-exec'd main() is driven through a multi-seed grid and every
	// derived table kind it renders.
	study.Register("headline-cli", "Fig 9-shaped study at test scale, three seeds and a CDF", func() (*study.Study, error) {
		return study.New("headline-cli",
			study.WithTraces(cliSource("fb-tiny", 10, 16), cliSource("osp-tiny", 14, 16)),
			study.WithSchedulers("aalo", "varys", "uc-tcp", "saath"),
			study.WithSeeds(1, 2, 3),
			study.WithBaseline("aalo"),
			study.WithDerived(
				study.DerivedCCT("headline-cli — per-scheduler CCT"),
				study.DerivedSpeedup("headline-cli — per-coflow speedup over aalo", ""),
				study.DerivedCCTCDF("headline-cli", 25),
			))
	})
	// Sixty jobs of some tens of milliseconds each: long enough that an
	// interrupt sent at the first completion lands mid-sweep.
	study.Register("slow-cli", "a sweep long enough to interrupt", func() (*study.Study, error) {
		seeds := make([]int64, 60)
		for i := range seeds {
			seeds[i] = int64(i + 1)
		}
		return study.New("slow-cli",
			study.WithTraces(cliSource("fb-slow", 20, 2000)),
			study.WithSchedulers("saath"),
			study.WithSeeds(seeds...))
	})
}

// child prepares this binary as saath-sim with args.
func child(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	return cmd
}

// run executes one saath-sim invocation to completion and returns its
// stdout.
func run(t *testing.T, args ...string) string {
	t.Helper()
	cmd := child(t, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("saath-sim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// tables cuts the deterministic part out of a run's stdout: from the
// first table to the out-of-band coordinator table (wall-clock, live
// in-process runs only). The mode's own summary line comes before.
func tables(t *testing.T, stdout string) string {
	t.Helper()
	i := strings.Index(stdout, "== ")
	if i < 0 {
		t.Fatalf("no table in output:\n%s", stdout)
	}
	out := stdout[i:]
	if j := strings.Index(out, "== coordinator runtime"); j >= 0 {
		out = out[:j]
	}
	return strings.TrimRight(out, "\n")
}

// TestOneEntryPointSameBytes: one study through saath-sim's two ways
// of running it — in this process, and as two shards merged — renders
// identical tables and identical -json bytes, for a simulator-backed
// and a testbed-backed study.
func TestOneEntryPointSameBytes(t *testing.T) {
	for _, name := range []string{"headline-cli", "overload"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := func(f string) string { return filepath.Join(dir, f) }
			export := func(f string) []byte {
				b, err := os.ReadFile(path(f))
				if err != nil || len(b) == 0 {
					t.Fatalf("%s: %d bytes, %v", f, len(b), err)
				}
				return b
			}

			direct := tables(t, run(t, "-study", name, "-parallel", "2", "-json", path("direct.json")))
			want := export("direct.json")

			run(t, "-study", name, "-shard", "0/2", "-out", path("shards"))
			run(t, "-study", name, "-shard", "1/2", "-out", path("shards"))
			merged := tables(t, run(t, "-study", name, "-merge", path("shards"), "-json", path("merged.json")))
			if merged != direct {
				t.Errorf("-shard + -merge tables differ from the direct run:\n%s\n--- direct ---\n%s", merged, direct)
			}
			if !bytes.Equal(export("merged.json"), want) {
				t.Error("-shard + -merge -json bytes differ from the direct run")
			}
		})
	}
}

// TestInterruptedRunFlushesManifest: SIGINT mid-sweep stops handing out
// jobs, and the run still writes the -obs-out manifest of what finished
// before exiting non-zero without tables.
func TestInterruptedRunFlushesManifest(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "obs.json")
	cmd := child(t, "-study", "slow-cli", "-parallel", "1", "-progress", "-obs-out", manifest)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The meter prints on the first completion: the sweep is under way.
	var diag strings.Builder
	lines := bufio.NewScanner(stderr)
	signalled := false
	for lines.Scan() {
		diag.WriteString(lines.Text() + "\n")
		if !signalled && strings.Contains(lines.Text(), " jobs (") {
			signalled = true
			if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = cmd.Wait()
	if !signalled {
		t.Fatalf("no progress line to interrupt at (exit %v):\n%s", err, diag.String())
	}
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("interrupted run: %v, want exit status 1\n%s", err, diag.String())
	}
	if !strings.Contains(diag.String(), "interrupted") || strings.Contains(stdout.String(), "== ") {
		t.Errorf("want an interrupted notice and no tables; stderr:\n%s\nstdout:\n%s", diag.String(), stdout.String())
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("no manifest flushed: %v", err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	finished := 0
	for _, j := range m.Jobs {
		if j.Error == "" {
			finished++
		}
	}
	if m.Study != "slow-cli" || finished == 0 || finished >= 60 {
		t.Errorf("manifest of study %q holds %d finished jobs of 60, want a partial run", m.Study, finished)
	}
}

// TestMetricsOutCarriesPoints: -metrics-out on a flag-built grid asks
// for series points; two shards given the flag merge, given it again,
// into the direct run's bytes; and a merge given the flag refuses
// shards that ran without it, which collected no points.
func TestMetricsOutCarriesPoints(t *testing.T) {
	dir := t.TempDir()
	path := func(f string) string { return filepath.Join(dir, f) }
	grid := []string{"-trace", "incast", "-sched", "aalo,saath", "-seed", "1,2", "-parallel", "2"}
	with := func(args ...string) []string { return append(append([]string(nil), grid...), args...) }

	run(t, with("-metrics-out", path("direct.json"))...)
	direct, err := os.ReadFile(path("direct.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Jobs []struct {
			Metrics struct {
				Series []struct {
					Name   string
					Points []json.RawMessage
				}
			}
		}
	}
	if err := json.Unmarshal(direct, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Jobs) != 4 {
		t.Fatalf("%d jobs exported, want 4", len(m.Jobs))
	}
	for _, j := range m.Jobs {
		progress := 0
		for _, s := range j.Metrics.Series {
			if len(s.Points) == 0 {
				t.Fatalf("series %s exported no points", s.Name)
			}
			if strings.HasPrefix(s.Name, "progress/") {
				progress++
			}
		}
		if progress == 0 {
			t.Fatal("no progress series exported")
		}
	}

	for _, sh := range []string{"0/2", "1/2"} {
		run(t, with("-shard", sh, "-out", path("points"), "-metrics-out", path("unwritten.json"))...)
		run(t, with("-shard", sh, "-out", path("plain"), "-metrics")...)
	}
	if _, err := os.Stat(path("unwritten.json")); !os.IsNotExist(err) {
		t.Errorf("a -shard run wrote its -metrics-out file (%v)", err)
	}
	run(t, with("-merge", path("points"), "-metrics-out", path("merged.json"))...)
	if merged, err := os.ReadFile(path("merged.json")); err != nil || !bytes.Equal(merged, direct) {
		t.Errorf("-shard + -merge -metrics-out bytes differ from the direct run (%v)", err)
	}

	// A merge on the other side of -metrics-out from its shards is
	// refused, and the refusal names the flag, both ways round.
	for _, c := range []struct {
		shards string
		flags  []string
		says   string
	}{
		{"plain", []string{"-metrics-out", path("refused.json")}, "run without -metrics-out"},
		{"points", []string{"-metrics"}, "run with -metrics-out"},
	} {
		var stderr bytes.Buffer
		cmd := child(t, with(append([]string{"-merge", path(c.shards)}, c.flags...)...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if err == nil || !strings.Contains(stderr.String(), "fingerprint mismatch") {
			t.Errorf("merging %s shards with %v: %v, stderr %q; want a fingerprint mismatch", c.shards, c.flags, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.says) {
			t.Errorf("merging %s shards with %v: stderr %q does not say the shards were %s", c.shards, c.flags, stderr.String(), c.says)
		}
	}
	if _, err := os.Stat(path("refused.json")); !os.IsNotExist(err) {
		t.Errorf("a refused merge wrote its -metrics-out file (%v)", err)
	}
}
