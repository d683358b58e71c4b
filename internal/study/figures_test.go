package study

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"saath/internal/coflow"
	"saath/internal/report"
	"saath/internal/sweep"
	"saath/internal/trace"

	_ "saath/internal/sched/clair" // register scf/srtf/sjf-duration/lwtf (fig3, fig17)
)

// quickFBConfig shrinks the FB-like workload for the quick figure
// builds: same mix (23% single flow, ~50% equal-length, Table-1 bin
// shares), smaller cluster, and compressed arrivals to keep per-port
// contention comparable.
func quickFBConfig(seed int64) trace.SynthConfig {
	cfg := trace.DefaultFBConfig(seed)
	cfg.NumPorts = 40
	cfg.NumCoFlows = 120
	cfg.MeanInterArrival = 40 * coflow.Millisecond
	cfg.MaxLarge = 2 * coflow.GB
	return cfg
}

// quickOSPConfig shrinks the OSP-like workload, keeping its defining
// property — busier ports than FB.
func quickOSPConfig(seed int64) trace.SynthConfig {
	cfg := trace.DefaultOSPConfig(seed)
	cfg.NumPorts = 30
	cfg.NumCoFlows = 180
	cfg.MeanInterArrival = 15 * coflow.Millisecond
	cfg.MaxLarge = 4 * coflow.GB
	return cfg
}

var (
	quickFB = sweep.SynthSource("fb-quick", func(seed int64) *trace.Trace {
		return trace.Synthesize(quickFBConfig(seed), "fb-quick")
	})
	quickOSP = sweep.SynthSource("osp-quick", func(seed int64) *trace.Trace {
		return trace.Synthesize(quickOSPConfig(seed), "osp-quick")
	})
)

// quickFigures are the figure studies over the quick workloads, in the
// order testdata/figures-quick.golden renders them.
var quickFigures = []struct {
	name  string
	build func() (*Study, error)
}{
	{"fig1", Fig1},
	{"fig2", func() (*Study, error) { return Fig2(quickFB) }},
	{"fig3", func() (*Study, error) { return Fig3(quickFB) }},
	{"fig9", func() (*Study, error) { return Fig9(quickFB, quickOSP) }},
	{"fig10", func() (*Study, error) { return Fig10(quickFB, quickOSP) }},
	{"fig13", func() (*Study, error) { return Fig13(quickFB) }},
	{"fig14", func() (*Study, error) { return Fig14(quickFB) }},
	{"fig17", Fig17},
	{"ablations", func() (*Study, error) { return Ablations(quickFB) }},
}

var quick struct {
	once   sync.Once
	tables map[string][]*report.Table
	err    error
}

// quickTables runs every quick figure study once per test binary and
// returns each one's derived tables by study name.
func quickTables(t *testing.T) map[string][]*report.Table {
	t.Helper()
	quick.once.Do(func() {
		quick.tables = map[string][]*report.Table{}
		for _, f := range quickFigures {
			st, err := f.build()
			if err != nil {
				quick.err = err
				return
			}
			res, err := st.Run(context.Background(), Pool{Parallel: 8})
			if err != nil {
				quick.err = err
				return
			}
			if quick.tables[f.name], err = res.Tables(); err != nil {
				quick.err = err
				return
			}
		}
	})
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return quick.tables
}

func render(t *testing.T, tables []*report.Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestFiguresQuickGolden: the figure studies at quick scale render,
// byte for byte, what the memoising figure environment they replaced
// rendered for the same figures (its output with the per-figure
// timing headers stripped), on an 8-worker pool where the golden was
// taken on 2.
func TestFiguresQuickGolden(t *testing.T) {
	tables := quickTables(t)
	var got strings.Builder
	for _, f := range quickFigures {
		got.WriteString(render(t, tables[f.name]))
	}
	path := filepath.Join("testdata", "figures-quick.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("quick figures differ from %s:\n%s", path, got.String())
	}
}

// cell parses a rendered table cell as a float.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// toyRows returns a toy table's per-coflow cells (the averages row
// last), headers dropped.
func toyRows(t *testing.T, name string) [][]string {
	t.Helper()
	st, err := map[string]Builder{"fig1": Fig1, "fig17": Fig17}[name]()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(context.Background(), Pool{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := res.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return tables[0].Rows
}

// The toy pins below are derived by hand from the simulator's model:
// fluid rates, a flow on an idle port sends at the full 1 Gbps (125
// bytes/µs), one unit t is 12.5 MB = 100 ms at that rate, and
// schedules change only at δ = 8 ms boundaries — a flow that finishes
// mid-interval frees its port at the next multiple of 8 ms. S is 10
// MiB (10,485,760 bytes). Aalo demotes a coflow at the first boundary
// at which its total sent bytes reach S; Saath (Eq. 1) at the first at
// which its largest flow's sent bytes × its width do. A single flow
// started at a boundary reaches S after 83.9 ms, so it demotes 88 ms
// after it started, with 11,000,000 bytes sent and 1,500,000 (12 ms)
// to go.

// TestFig1ToyCCTs pins Fig. 1's per-coflow CCTs in units of t. C1..C4
// arrive at 0, 1, 2 and 3 ms; C1 sends on P1, C2 on P1, P2 and P3, C3
// on P2, C4 on P3, one unit per flow.
//
// aalo (per port, strict priority across queues, FIFO by arrival
// within one):
//   - 0–8 ms: C1 alone. From 8 ms: C1 on P1, C2 on P2 and P3 (it
//     precedes C3 and C4); C2's P1 flow waits behind C1.
//   - C2's two flows send 250 bytes/µs together and reach S at 49.9 ms:
//     at 56 ms C2 drops to queue 1 and C3, C4 (queue 0) take P2, P3.
//   - C1 reaches S at 83.9 ms and joins C2 in queue 1 at 88 ms; it
//     arrived first, so it keeps P1 and ends at 100 ms: C1 = 1.00t.
//   - C3, C4 reach S 83.9 ms after 56 ms; at 144 ms they join queue 1
//     behind C2 with 11,000,000 bytes sent. C2's P2/P3 flows (6,000,000
//     sent) run 52 ms to 196 ms; its P1 flow starts at the 104 ms
//     boundary after C1 and runs 100 ms to 204 ms: C2 = 2.04 − 0.01 =
//     2.03t.
//   - C3 and C4 resume at 200 ms for 12 ms, ending at 212 ms: C3 =
//     2.10t, C4 = 2.09t. Average 1.805 → 1.80.
//
// saath (all-or-none, LCoF within a queue, work conservation):
//   - From 8 ms: C1, C3 and C4 each block only C2 (k_c = 1), C2 blocks
//     all three (k_c = 3); C1, C3, C4 run, C2 waits.
//   - 88 ms: C1 demotes. C2 still cannot have P2 and P3, but work
//     conservation hands it the idle P1 ahead of queue 1.
//   - 96 ms: C3 and C4 demote; C2, alone in queue 0, runs on all three
//     ports.
//   - 120 ms: C2's P1 flow has 4,000,000 bytes × width 3 ≥ S: C2
//     demotes, and in queue 1 LCoF puts C1, C3, C4 (k_c = 1) first.
//     They finish their 12 ms at 132 ms: C1 = 1.32t, C3 = 1.30t, C4 =
//     1.29t.
//   - From 136 ms C2 runs alone: 8,500,000 bytes on P1 end at 204 ms,
//     9,500,000 on P2 and P3 at 212 ms: C2 = 2.11t. Average 1.505 →
//     1.50.
//
// One toy unit is above S, so Saath demotes C1 mid-flight and C2
// overtakes it — a modelling divergence the README records; at S = 100
// MB Saath gives 1.00 / 2.11 / 1.06 / 1.05.
func TestFig1ToyCCTs(t *testing.T) {
	want := [][]string{
		{"C1", "1.00", "1.32"},
		{"C2", "2.03", "2.11"},
		{"C3", "2.10", "1.30"},
		{"C4", "2.09", "1.29"},
		{"average", "1.80", "1.50"},
	}
	if got := toyRows(t, "fig1"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fig1 rows (coflow, aalo, saath) = %v, want %v", got, want)
	}
}

// TestFig17ToyCCTs pins Appendix A's per-coflow CCTs in units of t.
// All three coflows arrive at 0; P1 carries C1 (5t) and C2 (6t), P2
// carries C1 (5t) and C3 (7t).
//
// sjf-duration runs the shortest coflow, C1, on both ports: 5.00t. C2
// and C3 start at the next boundary, 504 ms, and run 6t and 7t: C2 =
// 11.04t, C3 = 12.04t. Average 28.08 / 3 = 9.36t.
//
// lwtf runs C2 and C3 first: 6.00t and 7.00t. C1's P1 flow starts when
// C2 ends at 600 ms (a boundary) and ends at 1100 ms; its P2 flow
// starts at the 704 ms boundary after C3 and ends at 1204 ms: C1 =
// 12.04t. Average 25.04 / 3 = 8.35t.
func TestFig17ToyCCTs(t *testing.T) {
	want := [][]string{
		{"C1", "5.00", "12.04"},
		{"C2", "11.04", "6.00"},
		{"C3", "12.04", "7.00"},
		{"average", "9.36", "8.35"},
	}
	if got := toyRows(t, "fig17"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fig17 rows (coflow, sjf-duration, lwtf) = %v, want %v", got, want)
	}
}

// TestFig3LWTFBeatsAalo: LWTF improves over Aalo overall (positive %),
// the paper's headline motivation for contention-awareness.
func TestFig3LWTFBeatsAalo(t *testing.T) {
	tables := quickTables(t)["fig3"]
	overall := tables[len(tables)-1]
	if len(overall.Rows) != 3 {
		t.Fatalf("fig3b rows = %v", overall.Rows)
	}
	for _, row := range overall.Rows {
		if row[0] == "lwtf" && cell(t, row[1]) <= 0 {
			t.Fatalf("lwtf overall improvement = %s, want positive", row[1])
		}
	}
}

// TestFig9SaathBeatsAaloAndUCTCP: on both workloads Saath's median
// speedup is at least 1 over Aalo and a clear win over UC-TCP.
func TestFig9SaathBeatsAaloAndUCTCP(t *testing.T) {
	tables := quickTables(t)["fig9"]
	if len(tables) != 2 { // FB and OSP
		t.Fatalf("fig9 tables = %d", len(tables))
	}
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			switch series, median := row[0], cell(t, row[2]); {
			case strings.HasPrefix(series, "aalo"):
				if median < 1.0 {
					t.Errorf("%s: saath vs aalo median %.2f < 1", tbl.Title, median)
				}
			case strings.HasPrefix(series, "uc-tcp"):
				if median < 1.2 {
					t.Errorf("%s: saath vs uc-tcp median %.2f, want a clear win", tbl.Title, median)
				}
			}
		}
	}
}

// TestFig9BaselineOrderIsPinned: the Fig. 9 baselines are a slice in
// the paper's presentation order, each labelled by its scheduler name,
// so neither the series order nor which baseline's error surfaces
// depends on map iteration.
func TestFig9BaselineOrderIsPinned(t *testing.T) {
	want := []string{"varys", "aalo", "uc-tcp"}
	if len(fig9Baselines) != len(want) {
		t.Fatalf("fig9Baselines has %d entries, want %d", len(fig9Baselines), len(want))
	}
	for i, base := range fig9Baselines {
		if base.name != want[i] {
			t.Errorf("fig9Baselines[%d] = %q, want %q", i, base.name, want[i])
		}
		if base.label == "" || !strings.HasPrefix(base.label, base.name) {
			t.Errorf("fig9Baselines[%d] label %q should start with %q", i, base.label, base.name)
		}
	}
}

// TestFig9RowsFollowBaselineOrder: every Fig. 9 table has one row per
// baseline, in fig9Baselines order.
func TestFig9RowsFollowBaselineOrder(t *testing.T) {
	for _, tbl := range quickTables(t)["fig9"] {
		if len(tbl.Rows) != len(fig9Baselines) {
			t.Fatalf("%s: %d rows, want %d", tbl.Title, len(tbl.Rows), len(fig9Baselines))
		}
		for i, row := range tbl.Rows {
			if row[0] != fig9Baselines[i].label {
				t.Errorf("%s row %d = %q, want %q", tbl.Title, i, row[0], fig9Baselines[i].label)
			}
		}
	}
}

// tinyFB and tinyOSP shrink the quick workloads further, so the tests
// that run a figure study several times stay fast.
var (
	tinyFB = sweep.SynthSource("fb-tiny", func(seed int64) *trace.Trace {
		cfg := quickFBConfig(seed)
		cfg.NumPorts, cfg.NumCoFlows = 16, 30
		return trace.Synthesize(cfg, "fb-tiny")
	})
	tinyOSP = sweep.SynthSource("osp-tiny", func(seed int64) *trace.Trace {
		cfg := quickOSPConfig(seed)
		cfg.NumPorts, cfg.NumCoFlows = 12, 40
		return trace.Synthesize(cfg, "osp-tiny")
	})
)

// renderStudy builds a study afresh, runs it on parallel workers and
// renders its derived tables.
func renderStudy(t *testing.T, build func() (*Study, error), parallel int) string {
	t.Helper()
	st, err := build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(context.Background(), Pool{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := res.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return render(t, tables)
}

// TestFig9RepeatRunsIdentical renders Fig. 9 from fresh studies: repeat
// runs within one process are byte-identical.
func TestFig9RepeatRunsIdentical(t *testing.T) {
	build := func() (*Study, error) { return Fig9(tinyFB, tinyOSP) }
	first := renderStudy(t, build, 2)
	for i := 0; i < 3; i++ {
		if again := renderStudy(t, build, 2); again != first {
			t.Fatalf("fig9 output differs across runs:\n--- first ---\n%s\n--- run %d ---\n%s", first, i+2, again)
		}
	}
}

// TestFigureOutputParallelInvariant: the figures do not depend on the
// pool's worker count — serial and 8-way parallel runs render
// byte-identical tables.
func TestFigureOutputParallelInvariant(t *testing.T) {
	builds := []func() (*Study, error){
		func() (*Study, error) { return Fig9(tinyFB, tinyOSP) },
		func() (*Study, error) { return Fig14(tinyFB) },
		func() (*Study, error) { return Ablations(tinyFB) },
	}
	renderAt := func(parallel int) string {
		var sb strings.Builder
		for _, build := range builds {
			sb.WriteString(renderStudy(t, build, parallel))
		}
		return sb.String()
	}
	if serial, parallel := renderAt(1), renderAt(8); serial != parallel {
		t.Errorf("figure output depends on parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestOSPShowsHigherTailThanFB: the paper's explanation for OSP's
// larger P90 — busier ports amplify HoL blocking — so Saath's tail
// speedup over Aalo is not much below FB's on OSP.
func TestOSPShowsHigherTailThanFB(t *testing.T) {
	tables := quickTables(t)["fig9"]
	p90 := func(tbl *report.Table) float64 {
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row[0], "aalo") {
				return cell(t, row[3])
			}
		}
		t.Fatalf("%s: no aalo row", tbl.Title)
		return 0
	}
	if fb, osp := p90(tables[0]), p90(tables[1]); osp < fb*0.8 {
		t.Fatalf("tail inversion: OSP P90 %.2f << FB P90 %.2f", osp, fb)
	}
}

// TestFig10BreakdownOrdering: full Saath is not clearly slower than
// plain A/N + FIFO on the FB median.
func TestFig10BreakdownOrdering(t *testing.T) {
	tables := quickTables(t)["fig10"]
	if len(tables) != 3 {
		t.Fatalf("fig10 tables = %d", len(tables))
	}
	rows := tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("fig10 rows = %v", rows)
	}
	if anFifo, full := cell(t, rows[0][1]), cell(t, rows[2][1]); full < anFifo-0.15 {
		t.Fatalf("fig10: full saath %.2f clearly below A/N+FIFO %.2f", full, anFifo)
	}
}

// TestFig11And12Bins: the per-bin tables of Figs 11 (fb) and 12 (osp),
// rendered by the fig10 study, have one row per design variant and one
// column per Table-1 bin.
func TestFig11And12Bins(t *testing.T) {
	tables := quickTables(t)["fig10"]
	if len(tables) != 3 {
		t.Fatalf("fig10 tables = %d", len(tables))
	}
	for i, tbl := range tables[1:] {
		if want := fmt.Sprintf("Fig %d", 11+i); !strings.HasPrefix(tbl.Title, want) {
			t.Errorf("table %d title %q, want %s", i+1, tbl.Title, want)
		}
		if len(tbl.Rows) != 3 || len(tbl.Headers) != 5 {
			t.Fatalf("%s shape: %v", tbl.Title, tbl)
		}
	}
}

// TestFig13SaathReducesDeviation: Saath keeps at least as many
// equal-length coflows within 0.10 normalized FCT stddev as Aalo.
func TestFig13SaathReducesDeviation(t *testing.T) {
	tables := quickTables(t)["fig13"]
	summary := tables[len(tables)-1]
	share := map[string]float64{}
	for _, row := range summary.Rows {
		if row[1] == "equal" {
			share[row[0]] = cell(t, row[3])
		}
	}
	if share["saath"] < share["aalo"] {
		t.Fatalf("fig13: saath ≤0.10 share %.2f < aalo %.2f", share["saath"], share["aalo"])
	}
}

// TestFig2Tables: Fig. 2 renders its five workload-shape tables.
func TestFig2Tables(t *testing.T) {
	tables := quickTables(t)["fig2"]
	if len(tables) != 5 {
		t.Fatalf("fig2 tables = %d, want 5", len(tables))
	}
	out := render(t, tables)
	for _, want := range []string{"Fig 2a", "Fig 2b", "Fig 2c", "workload mix", "single-flow"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestFig14SweepsTiny: Fig. 14's five parameter sweeps have one row per
// swept value.
func TestFig14SweepsTiny(t *testing.T) {
	tables := quickTables(t)["fig14"]
	wantRows := []int{6, 5, 6, 6, 5}
	if len(tables) != len(wantRows) {
		t.Fatalf("fig14 tables = %d, want %d", len(tables), len(wantRows))
	}
	for i, tbl := range tables {
		if len(tbl.Rows) != wantRows[i] {
			t.Errorf("fig14 table %d rows = %d, want %d", i, len(tbl.Rows), wantRows[i])
		}
	}
}

// TestAblations: the work-conservation, contention-metric and dynamics
// ablations each compare two variants.
func TestAblations(t *testing.T) {
	tables := quickTables(t)["ablations"]
	titles := []string{"work conservation", "contention metric", "dynamics SRTF"}
	if len(tables) != len(titles) {
		t.Fatalf("ablation tables = %d, want %d", len(tables), len(titles))
	}
	for i, tbl := range tables {
		if !strings.Contains(tbl.Title, titles[i]) {
			t.Errorf("ablation table %d title %q, want %q", i, tbl.Title, titles[i])
		}
		if len(tbl.Rows) != 2 {
			t.Errorf("%s rows = %d, want 2", tbl.Title, len(tbl.Rows))
		}
	}
}

// TestFig10ShardMergeGolden: the fig10 study (whose Fig 11/12 tables
// read the per-coflow column) run as shard 0/2 + shard 1/2 and merged
// renders byte-identical to the unsharded run.
func TestFig10ShardMergeGolden(t *testing.T) {
	st, err := Fig10(quickFB, quickOSP)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	whole, err := st.Run(ctx, Pool{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantJS, _, _, wantTables := exports(t, whole)
	if !strings.Contains(wantTables, "Fig 12 — median speedup over Aalo by Table-1 bin (osp-quick)") {
		t.Fatalf("fig10 tables:\n%s", wantTables)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		sh := Sharded{Index: i, Count: 2, Pool: Pool{Parallel: 2}}
		res, err := st.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.WriteShardFile(dir, sh); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShardDir(st, dir)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, _, _, gotTables := exports(t, merged)
	if gotJS != wantJS {
		t.Error("fig10 summary JSON differs between sharded and unsharded runs")
	}
	if gotTables != wantTables {
		t.Errorf("fig10 tables differ:\n--- single ---\n%s\n--- merged ---\n%s", wantTables, gotTables)
	}
}

// TestCoFlowColumnMatchesTrace: the per-coflow column a summary digests
// from the result carries exactly the trace-side shape the figures
// used to read from the specs: widths, bytes, flow-size spread and
// hence each coflow's flow-length class.
func TestCoFlowColumnMatchesTrace(t *testing.T) {
	tr := trace.Synthesize(quickFBConfig(1), "fb-quick")
	st, err := New("column", WithTraces(sweep.FixedTrace(tr)), WithSchedulers("saath"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(context.Background(), Pool{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	col := res.Summary().Entries()[0].CoFlows
	if len(col) != len(tr.Specs) {
		t.Fatalf("column holds %d coflows, trace %d", len(col), len(tr.Specs))
	}
	specs := map[coflow.CoFlowID]*coflow.Spec{}
	for _, s := range tr.Specs {
		specs[s.ID] = s
	}
	multi := 0
	for _, r := range col {
		s := specs[r.ID]
		if r.Width != s.Width() || r.Bytes != s.TotalSize() || r.SizeDev != trace.NormalizedSizeStdDev(s) ||
			trace.ClassOf(r.Width, r.SizeDev) != trace.Classify(s) {
			t.Fatalf("coflow %d: column %+v, spec width %d bytes %d dev %v", r.ID, r, s.Width(), s.TotalSize(), trace.NormalizedSizeStdDev(s))
		}
		if r.Width > 1 {
			multi++
			if r.FCTDev < 0 {
				t.Fatalf("coflow %d: FCTDev %v", r.ID, r.FCTDev)
			}
		} else if r.FCTDev != 0 {
			t.Fatalf("single-flow coflow %d has FCTDev %v", r.ID, r.FCTDev)
		}
	}
	if multi == 0 {
		t.Fatal("no multi-flow coflows in the quick FB trace")
	}
}
