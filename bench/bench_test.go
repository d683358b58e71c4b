package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The tables in metrics.go and workloads.go are what the program
// emits; BENCHMARK.json is what the driver expects. They must agree
// name for name, unit for unit, bound for bound.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !slices.Equal(bj.Command, []string{"go", "run", "./bench"}) || !slices.Equal(bj.Paths, []string{"bench"}) {
		t.Errorf("command %q paths %q", bj.Command, bj.Paths)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bj.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, got.Name, w.name)
		}
		if got.Why == "" || len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(got.Why))
		}
	}
	if !slices.Equal(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n prog %+v", bj.EndToEnd, endToEnd)
	}
	if !slices.Equal(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n prog %+v", bj.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or used twice", w.name)
		}
		seen[w.name] = true
	}
	if i := slices.IndexFunc(endToEnd, func(d metricDef) bool { return d.Name == "setup_s" }); i < 0 || endToEnd[i].Unit != "s" || endToEnd[i].Better != "lower" {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// Every workload at smoke scale, untraced and traced: the emitted
// metric names are exactly the declared ones, every correctness check
// passes, both passes agree on every digest, and the span tree adds
// up. No wall-clock value is asserted.
func TestEveryWorkloadAtSmokeScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				res, err := run(runConfig{w: w, seed: 7, seconds: 0.01, traced: traced, sc: scaleSmoke})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.OpsFailed != 0 || res.Ops < 1 || len(res.Problems) > 0 {
					t.Fatalf("traced=%t: correct=%t ops=%d failed=%d problems=%q", traced, res.Correct, res.Ops, res.OpsFailed, res.Problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				checkResultLine(t, res.resultLine(), defs, !traced)
				res.print(io.Discard)
				digests = append(digests, res.InputsDigest+"/"+res.ResultDigest)
				if traced {
					checkSpans(t, res.Spans)
				} else if len(res.Spans) != 0 {
					t.Errorf("untraced run recorded %d spans", len(res.Spans))
				}
			}
			if digests[0] != digests[1] {
				t.Errorf("untraced digests %s, traced %s", digests[0], digests[1])
			}
		})
	}
}

// checkResultLine holds the last line of output to the driver's
// contract: exactly four keys, and exactly the declared metrics.
func checkResultLine(t *testing.T, line string, defs []metricDef, nonZero bool) {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line: %v\n%s", err, line)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || !*got.Correct || *got.Attempted < 1 || *got.Failed != 0 {
		t.Errorf("result line: %s", line)
	}
	var want []string
	for _, d := range defs {
		want = append(want, d.Name)
		m, ok := got.Metrics[d.Name]
		switch {
		case !ok:
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != d.Unit:
			t.Errorf("metric %s: %+v, want a finite value in %s", d.Name, m, d.Unit)
		case nonZero && *m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v: must never be 0", d.Name, *m.Value)
		}
	}
	have := slices.Sorted(maps.Keys(got.Metrics))
	slices.Sort(want)
	if !slices.Equal(have, want) {
		t.Errorf("emitted metrics %q\nwant            %q", have, want)
	}
}

// checkSpans: one root; every span lies inside its parent; the time a
// parent's children cover never exceeds the parent, so self time —
// the span minus what its children cover — is non-negative and
// self + children is the parent exactly.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 || spans[0].Name != "workload" || spans[0].Parent != -1 {
		t.Fatalf("no root span: %+v", spans)
	}
	covered := make([]int64, len(spans))
	names := map[string]bool{}
	for i, s := range spans {
		names[s.Name] = true
		if !nameRE.MatchString(s.Name) {
			t.Errorf("span name %q", s.Name)
		}
		if s.EndNs < s.StartNs || (s.Calls > 0 && s.BusyNs < s.MaxNs) {
			t.Errorf("span %d %s: %+v", i, s.Name, s)
		}
		if i == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d %s: parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || (s.Calls == 0 && s.EndNs > p.EndNs) {
			t.Errorf("span %d %s [%d, %d] escapes its parent %s [%d, %d]", i, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		covered[s.Parent] += s.covered()
	}
	for i, s := range spans {
		if self := s.EndNs - s.StartNs - covered[i]; s.Calls == 0 && self < 0 {
			t.Errorf("span %d %s: children cover %d ns of %d: self time %d", i, s.Name, covered[i], s.EndNs-s.StartNs, self)
		}
	}
	for _, want := range []string{"setup", "rep", "trace.synthesize", "saath.schedule", "bench.trace_overhead"} {
		if !names[want] {
			t.Errorf("no %q span among %v", want, slices.Sorted(maps.Keys(names)))
		}
	}
}

func TestSeedMakesTheInputs(t *testing.T) {
	quiet := newRecorder(false)
	digest := func(w *workload, seed int64) uint64 {
		p, err := w.prepare(quiet, seed, scaleSmoke)
		if err != nil {
			t.Fatal(err)
		}
		return p.digest
	}
	for _, w := range workloads {
		if a, b, c := digest(w, 1), digest(w, 1), digest(w, 2); a != b || a == c {
			t.Errorf("%s: digests for seeds 1, 1, 2: %x %x %x", w.name, a, b, c)
		}
	}
}

// surface.go is the one place the benchmark touches the repo, and it
// stays off the API slated for removal.
func TestSurfaceIsTheOnlyImporter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"Mode": true, "ModeTick": true, "ModeEvent": true, "ParseMode": true, "InEngineMode": true, "Counters": true, "Sched": true}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "saath" {
				t.Errorf("%s imports the root facade", name)
			}
			if strings.HasPrefix(path, "saath/") && name != "surface.go" {
				t.Errorf("%s imports %s; only surface.go may touch the repo", name, path)
			}
		}
		if name != "surface.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if banned[n.Sel.Name] {
					t.Errorf("surface.go uses .%s, which is slated for removal", n.Sel.Name)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && banned[id.Name] {
					t.Errorf("surface.go sets %s, which is slated for removal", id.Name)
				}
			}
			return true
		})
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqrShare([]float64{3, 1, 2, 5, 4, 7, 6, 10, 9, 8}); math.Abs(got-1) > 1e-12 {
		t.Errorf("ten values: %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if got := iqrShare([]float64{1, 2, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("three values: %v, want 1", got)
	}
	if got := iqrShare([]float64{4}); got != 0 {
		t.Errorf("one value: %v, want 0", got)
	}
}

func TestCompare(t *testing.T) {
	suite := func(mutate func(r *runResult)) string {
		s := &suiteResult{}
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				r := &runResult{
					Workload: w.name, Seed: 1, Scale: "full", Seconds: 10, Setups: 3, Traced: traced, GOMAXPROCS: procs,
					InputsDigest: "aa", ResultDigest: "bb", Correct: true, Metrics: map[string]metricValue{},
				}
				if traced {
					r.Setups = 1
					r.Metrics["sim.epochs"] = metricValue{Value: 100, Unit: "count"}
				} else {
					for _, d := range endToEnd {
						r.Metrics[d.Name] = metricValue{Value: 10, Unit: d.Unit, Samples: []float64{9.95, 10, 10.05}}
					}
					r.Metrics["cct_p50_s"] = metricValue{Value: 1.5, Unit: "s"}
				}
				mutate(r)
				s.Runs = append(s.Runs, r)
			}
		}
		path := filepath.Join(t.TempDir(), "suite.json")
		if err := writeJSONFile(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := suite(func(*runResult) {})
	only := func(workload string, f func(r *runResult)) func(*runResult) {
		return func(r *runResult) {
			if r.Workload == workload && !r.Traced {
				f(r)
			}
		}
	}
	cases := []struct {
		name    string
		other   string
		wantErr string
		wantOut string
	}{
		{"same", suite(func(*runResult) {}), "", ""},
		{"slower", suite(only("dense-burst", func(r *runResult) {
			r.Metrics["wall_s"] = metricValue{Value: 13, Unit: "s", Samples: []float64{12.9, 13, 13.1}}
		})), "1 rows outside", "regressed"},
		{"faster", suite(only("dense-burst", func(r *runResult) {
			r.Metrics["wall_s"] = metricValue{Value: 5, Unit: "s", Samples: []float64{4.9, 5, 5.1}}
		})), "", ""},
		{"noisy", suite(only("study-grid", func(r *runResult) {
			r.Metrics["wall_s"] = metricValue{Value: 10, Unit: "s", Samples: []float64{8, 10, 13}}
		})), "1 rows outside", "unresolved"},
		{"cct moved", suite(only("fb-headline", func(r *runResult) {
			r.Metrics["cct_p50_s"] = metricValue{Value: 1.5001, Unit: "s"}
		})), "1 rows outside", "differs"},
		{"other inputs", suite(only("fb-headline", func(r *runResult) { r.InputsDigest = "cc" })), "refusing to compare fb-headline: inputs_digest", ""},
		{"other seed", suite(func(r *runResult) { r.Seed = 2 }), "refusing to compare fb-headline: seed", ""},
	}
	for _, c := range cases {
		var out strings.Builder
		err := compareFiles(&out, base, c.other)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v\n%s", c.name, err, out.String())
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want %q", c.name, err, c.wantErr)
		case !strings.Contains(out.String(), c.wantOut):
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.wantOut, out.String())
		}
	}
}
