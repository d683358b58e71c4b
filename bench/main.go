// Command bench is the repo's benchmark: five workloads, an end-to-end
// ledger measured untraced, and a per-layer trace taken from outside
// each layer. It claims no gain; it is the yardstick later changes are
// measured against. See README.md in this directory.
//
// One workload, as BENCHMARK.json's driver runs it:
//
//	go run ./bench --workload fb-headline --seed 1 --seconds 10 --trace 0
//
// Every workload, untraced then traced, each in its own child process,
// with one JSON result:
//
//	go run ./bench -out result.json
//
// Two such results compared against the benchmark's bounds:
//
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed    = flag.Int64("seed", 1, "the inputs are made from this seed")
		seconds = flag.Float64("seconds", runSeconds, "how long the timed repetitions run")
		traced  = flag.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
		scaleFl = flag.String("scale", "full", "input size: full or smoke")
		out     = flag.String("out", "", "also write the full result (samples, spans) as JSON to this file")
		compare = flag.Bool("compare", false, "compare the two result files given as arguments")
	)
	flag.Parse()
	err := func() error {
		if *compare {
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two result files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		sc, err := parseScale(*scaleFl)
		switch {
		case err != nil:
			return err
		case flag.NArg() > 0:
			return fmt.Errorf("unexpected arguments %q", flag.Args())
		case *traced != 0 && *traced != 1:
			return fmt.Errorf("-trace %d: want 0 or 1", *traced)
		case *seconds <= 0:
			return fmt.Errorf("-seconds %v: want a positive duration", *seconds)
		case *name == "":
			return runSuite(*seed, *seconds, *scaleFl, *out)
		}
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return runOne(runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, sc: sc}, *out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's form: one workload in this process, every
// metric printed by name, the result object as the last line.
func runOne(cfg runConfig, out string) error {
	res, err := run(cfg)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSONFile(out, res); err != nil {
			return err
		}
	}
	res.print(os.Stdout)
	fmt.Println(res.resultLine())
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the correctness checks", cfg.w.name, res.OpsFailed, res.Ops)
	}
	return nil
}

func parseScale(s string) (scale, error) {
	switch s {
	case "full":
		return scaleFull, nil
	case "smoke":
		return scaleSmoke, nil
	}
	return 0, fmt.Errorf("-scale %q: want full or smoke", s)
}

// suiteResult is the one JSON result of a whole run: every workload,
// untraced then traced.
type suiteResult struct {
	Runs []*runResult `json:"runs"`
}

// runSuite runs every workload untraced, then every workload traced,
// each in a child process of its own so no workload inherits another's
// heap, caches or peak RSS.
func runSuite(seed int64, seconds float64, scaleName, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "saath-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	suite := &suiteResult{}
	failed := 0
	for _, traced := range []int{0, 1} {
		for _, w := range workloads {
			file := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, traced))
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(traced), "-scale", scaleName, "-out", file)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res runResult
			if err := readJSONFile(file, &res); err != nil {
				if runErr != nil {
					return fmt.Errorf("%s (trace %d): %w", w.name, traced, runErr)
				}
				return err
			}
			if runErr != nil || !res.Correct {
				failed++
			}
			suite.Runs = append(suite.Runs, &res)
		}
	}
	for _, w := range workloads {
		u, t := suite.find(w.name, false), suite.find(w.name, true)
		if u.ResultDigest != t.ResultDigest || u.InputsDigest != t.InputsDigest {
			fmt.Printf("PROBLEM: %s: traced digests (%s, %s) differ from untraced (%s, %s)\n",
				w.name, t.InputsDigest, t.ResultDigest, u.InputsDigest, u.ResultDigest)
			failed++
		}
	}
	if out != "" {
		if err := writeJSONFile(out, suite); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", failed)
	}
	return nil
}

func (s *suiteResult) find(workload string, traced bool) *runResult {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeJSON(f, v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return nil
}
