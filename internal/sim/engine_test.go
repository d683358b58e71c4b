package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/trace"

	_ "saath/internal/core"        // register saath variants
	_ "saath/internal/sched/aalo"  // register aalo
	_ "saath/internal/sched/clair" // register clairvoyant policies
	_ "saath/internal/sched/uctcp" // register uc-tcp
	_ "saath/internal/sched/varys" // register varys
)

// TestFlowResultLayout pins a result row at two words: the ID and FCT
// are derived from the row's position and the CoFlow's arrival.
func TestFlowResultLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(FlowResult{}); got != 16 {
		t.Errorf("FlowResult is %d bytes, want 16", got)
	}
}

func runOn(t *testing.T, tr *trace.Trace, scheduler string, cfg Config) *Result {
	t.Helper()
	s, err := sched.New(scheduler, sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr.Clone(), s, cfg)
	if err != nil {
		t.Fatalf("%s on %s: %v", scheduler, tr.Name, err)
	}
	return res
}

// checkConservation asserts the invariants every run must satisfy.
func checkConservation(t *testing.T, tr *trace.Trace, res *Result) {
	t.Helper()
	if len(res.CoFlows) != len(tr.Specs) {
		t.Fatalf("%s: %d of %d coflows completed", res.Scheduler, len(res.CoFlows), len(tr.Specs))
	}
	byID := make(map[coflow.CoFlowID]*coflow.Spec)
	for _, s := range tr.Specs {
		byID[s.ID] = s
	}
	for _, c := range res.CoFlows {
		spec := byID[c.ID]
		if spec == nil {
			t.Fatalf("unknown coflow %d in results", c.ID)
		}
		if c.CCT <= 0 {
			t.Errorf("coflow %d: CCT %v", c.ID, c.CCT)
		}
		if c.DoneAt < c.Arrival {
			t.Errorf("coflow %d: done %v before arrival %v", c.ID, c.DoneAt, c.Arrival)
		}
		if c.Bytes != spec.TotalSize() {
			t.Errorf("coflow %d: bytes %d != spec %d", c.ID, c.Bytes, spec.TotalSize())
		}
		var lastFlow coflow.Time
		for _, f := range c.Flows {
			if f.DoneAt > lastFlow {
				lastFlow = f.DoneAt
			}
		}
		if lastFlow != c.DoneAt {
			t.Errorf("coflow %d: CCT not set by last flow (%v vs %v)", c.ID, lastFlow, c.DoneAt)
		}
	}
}

func TestSingleFlowExactCCT(t *testing.T) {
	// 1 MB at 1 Gbps is ~8.4 ms (1 MiB / 125e6 B/s); the engine credits
	// the exact in-interval completion.
	tr := &trace.Trace{Name: "one", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
	}}
	res := runOn(t, tr, "saath", Config{})
	checkConservation(t, tr, res)
	want := coflow.GbpsRate(1).TimeToSend(coflow.MB)
	got := res.CoFlows[0].CCT
	if got < want || got > want+coflow.Millisecond {
		t.Fatalf("CCT = %v, want ≈%v", got, want)
	}
}

func TestAllSchedulersCompleteMicroTraces(t *testing.T) {
	traces := []*trace.Trace{trace.Fig1Trace(), trace.Fig4Trace(), trace.Fig8Trace(), trace.Fig17Trace()}
	scheds := []string{"saath", "saath/an+fifo", "saath/an+pf+fifo", "saath/nowc",
		"aalo", "varys", "scf", "srtf", "sjf-duration", "lwtf", "uc-tcp"}
	for _, tr := range traces {
		for _, sn := range scheds {
			res := runOn(t, tr, sn, Config{})
			checkConservation(t, tr, res)
		}
	}
}

func TestFig1SaathBeatsAalo(t *testing.T) {
	tr := trace.Fig1Trace()
	saath := runOn(t, tr, "saath", Config{})
	aalo := runOn(t, tr, "aalo", Config{})
	if saath.AvgCCT() >= aalo.AvgCCT() {
		t.Fatalf("fig1: saath %.4fs !< aalo %.4fs", saath.AvgCCT(), aalo.AvgCCT())
	}
}

func TestFig4WorkConservationHelps(t *testing.T) {
	tr := trace.Fig4Trace()
	full := runOn(t, tr, "saath", Config{})
	nowc := runOn(t, tr, "saath/nowc", Config{})
	if full.AvgCCT() > nowc.AvgCCT() {
		t.Fatalf("fig4: WC hurt: %.4fs vs %.4fs", full.AvgCCT(), nowc.AvgCCT())
	}
	// The paper's example: WC turns avg 2t into 1.67t — strictly better.
	if full.AvgCCT() >= nowc.AvgCCT() {
		t.Fatalf("fig4: WC did not help: %.4fs vs %.4fs", full.AvgCCT(), nowc.AvgCCT())
	}
}

func TestFig17ContentionBeatsDurationSJF(t *testing.T) {
	tr := trace.Fig17Trace()
	sjf := runOn(t, tr, "sjf-duration", Config{})
	lwtf := runOn(t, tr, "lwtf", Config{})
	if lwtf.AvgCCT() >= sjf.AvgCCT() {
		t.Fatalf("fig17: lwtf %.4fs !< sjf %.4fs", lwtf.AvgCCT(), sjf.AvgCCT())
	}
}

func TestFig8LCoFPreemptsHighContentionCoFlow(t *testing.T) {
	// Fig. 8 explores LCoF's limitation with a long, low-contention
	// CoFlow. Under the text's contention definition (k = CoFlows
	// blocked across all ports) C2 blocks both C1 and C3 (k=2) while
	// each short CoFlow blocks only C2 (k=1), so once C1/C3 arrive
	// they preempt C2: short CCTs ≈ 1t, C2 ≈ 3.5t, and the average
	// beats the paper's illustrated LCoF outcome of 2.83t.
	tr := trace.Fig8Trace()
	res := runOn(t, tr, "saath", Config{})
	var c1, c2, c3 CoFlowResult
	for _, c := range res.CoFlows {
		switch c.ID {
		case 1:
			c1 = c
		case 2:
			c2 = c
		case 3:
			c3 = c
		}
	}
	// One micro-unit flow is 12.5 MB, which crosses the 10 MB per-flow
	// threshold shortly before completion, so C1/C3 demote for a few
	// intervals near the end; allow that slack (observed ≈1.47t).
	unit := trace.MicroUnit.Seconds()
	if c1.CCT.Seconds() > 1.6*unit || c3.CCT.Seconds() > 1.6*unit {
		t.Fatalf("fig8: short coflows not preempting: C1=%v C3=%v", c1.CCT, c3.CCT)
	}
	if c2.CCT.Seconds() < 3*unit || c2.CCT.Seconds() > 4*unit {
		t.Fatalf("fig8: C2 CCT %v, want ≈3.5t (pushed back)", c2.CCT)
	}
	if avg := res.AvgCCT(); avg > 2.83*unit {
		t.Fatalf("fig8: avg CCT %.3fs worse than paper's LCoF 2.83t", avg)
	}
}

// TestFig4ExactCCTs pins Fig. 4's CCTs to the microsecond, derived by
// hand. Model: fluid rates, 125 bytes/µs per idle port (1 Gbps), one
// unit t = 12,500,000 bytes = 100 ms, schedules change only at δ = 8 ms
// boundaries, S = 10 MiB, and a width-2 coflow demotes (Eq. 1) at the
// first boundary at which its largest flow has 5 MiB (41.9 ms of
// sending) — with 6,000,000 bytes sent when it started at a boundary
// 48 ms earlier. C1 (P1, P3), C2 (P1, P2), C3 (P2, P3) arrive at 0, 1
// and 2 ms; every pair shares a port, so LCoF ties and arrival order
// decides.
//
// saath:
//   - 0: C1 runs. 8 ms: C2 and C3 miss all-or-none; work conservation
//     gives C2's P2 flow the idle P2.
//   - 48 ms: C1 demotes (6,000,000 per flow); C2 (5,000,000 on P2) runs
//     on P1 and P2, and work conservation gives C3's P3 flow P3.
//   - 56 ms: C2 demotes; C3 (1,000,000) runs on P2, P3; work
//     conservation gives C1's P1 flow P1.
//   - 96 ms: C3 demotes; all in queue 1, C1 first: it runs on P1, P3
//     (11,000,000 and 6,000,000 sent) and C2's P2 flow takes P2. C1's
//     P1 flow ends at 108 ms, its P3 flow at 148 ms: C1 = 148,000 µs.
//   - 112 ms: C2 runs on P1 and P2 (1,000,000 and 8,000,000 sent); its
//     P2 flow ends at 148 ms.
//   - 152 ms: C3 (5,000,000 and 6,000,000) takes P2 and P3 beside C2's
//     P1 flow, which ends 52 ms later at 204 ms: C2 = 203,000 µs. C3's
//     flows end at 204 and 212 ms: C3 = 210,000 µs.
//
// saath/nowc (no work conservation): each coflow runs 48 ms from a
// boundary in queue 0 and demotes with 6,000,000 bytes per flow: C1
// 0–48, C2 48–96, C3 96–144 ms. In queue 1 they finish their 6,500,000
// bytes (52 ms) one after another from the boundaries 144, 200 and
// 256 ms: C1 ends at 196 ms (196,000 µs), C2 at 252 ms (251,000), C3
// at 308 ms (306,000).
func TestFig4ExactCCTs(t *testing.T) {
	tr := trace.Fig4Trace()
	for sn, want := range map[string]map[coflow.CoFlowID]coflow.Time{
		"saath":      {1: 148_000, 2: 203_000, 3: 210_000}, // 1.48t, 2.03t, 2.10t; avg 1.87t
		"saath/nowc": {1: 196_000, 2: 251_000, 3: 306_000}, // 1.96t, 2.51t, 3.06t; avg 2.51t
	} {
		if got := runOn(t, tr, sn, Config{}).CCTByID(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("fig4 %s: CCTs %v µs, want %v", sn, got, want)
		}
	}
}

// TestFig8ExactCCTs pins Fig. 8's Saath CCTs to the microsecond (model
// as TestFig4ExactCCTs). C2 arrives at 0 with two 2.5-unit flows on
// S1, S2; C1 (S1) and C3 (S2) arrive at 1 and 2 ms with one unit each.
//   - 0: C2 runs alone. 8 ms: C2 blocks C1 and C3 (k_c = 2), each of
//     them blocks only C2 (k_c = 1), so LCoF runs C1 and C3 and C2
//     waits with 1,000,000 bytes per flow.
//   - 96 ms: C1 and C3 demote (11,000,000 sent); C2 runs.
//   - 136 ms: C2 demotes (6,000,000 per flow); in queue 1 LCoF runs C1
//     and C3 again; they end at 148 ms: C1 = 147,000 µs, C3 = 146,000.
//   - 152 ms: C2 sends its last 25,250,000 bytes per flow (202 ms),
//     ending at 354 ms: C2 = 354,000 µs.
//
// Average 2.16t: C1/C3 first, where the paper's Fig. 8 has LCoF run C2
// first (2.83t) — the README records the divergence.
func TestFig8ExactCCTs(t *testing.T) {
	want := map[coflow.CoFlowID]coflow.Time{1: 147_000, 2: 354_000, 3: 146_000} // 1.47t, 3.54t, 1.46t
	if got := runOn(t, trace.Fig8Trace(), "saath", Config{}).CCTByID(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fig8 saath: CCTs %v µs, want %v", got, want)
	}
}

// TestAaloExactCCTs pins Aalo's CCTs on the Fig. 4, 8 and 17 traces to
// the microsecond (model as TestFig4ExactCCTs). Aalo places a coflow by
// its total bytes sent: queue 0 below S = 10,485,760 bytes, queue 1
// below 10·S = 104,857,600, then queue 2. Each sender port serves its
// flows in (queue, arrival, ID) order; every receiver here is distinct,
// so only senders contend.
//
// Fig. 4 (C1 on P1, P3; C2 on P1, P2; C3 on P2, P3; one unit per flow):
//   - 0: C1 runs on P1 and P3. 8 ms: C2 (queue 0) takes the idle P2.
//   - 48 ms: C1 demotes (12,000,000 sent); C2 runs on P1 and P2, C3 on
//     P3.
//   - 72 ms: C2 demotes (11,000,000); C3 runs on P2 and P3, and C1, ahead
//     of C2 in queue 1, takes P1.
//   - 104 ms: C3 demotes (11,000,000); all in queue 1, C1 runs on P1 and
//     P3 (10,000,000 and 6,000,000 sent), C2 on P2 (8,000,000). C1's P1
//     flow ends at 124 ms, its P3 flow at 156 ms: C1 = 156,000 µs. C2's
//     P2 flow ends at 140 ms.
//   - 128 ms: C2's P1 flow (3,000,000) takes P1 and ends at 204 ms:
//     C2 = 203,000 µs. 144 ms: C3's P2 flow (4,000,000) takes P2 and
//     ends at 212 ms; 160 ms: its P3 flow (7,000,000) takes P3 and ends
//     at 204 ms: C3 = 210,000 µs.
//
// Fig. 8 (C2 on S1, S2 with 2.5 units per flow; C1 on S1 and C3 on S2
// with one unit):
//   - 0: C2 runs on both. 48 ms: C2 demotes (12,000,000); C1 and C3 run.
//   - 136 ms: C1 and C3 demote (11,000,000 each); C2, first by arrival
//     in queue 1, runs its last 25,250,000 bytes per flow (202 ms) and
//     ends at 338 ms: C2 = 338,000 µs.
//   - 344 ms: C1 and C3 send their last 1,500,000 bytes (12 ms) and end
//     at 356 ms: C1 = 355,000 µs, C3 = 354,000.
//
// Fig. 17 (all at 0; C1 on P1 and P2 with 5 units per flow, C2 on P1
// with 6, C3 on P2 with 7; C1 is first by ID):
//   - 0: C1 runs on both. 48 ms: C1 demotes (12,000,000); C2 and C3 run.
//   - 136 ms: C2 and C3 demote (11,000,000); C1, first in queue 1, runs
//     on both ports.
//   - 512 ms: C1 reaches queue 2 (106,000,000 sent, 53,000,000 per
//     flow); C2 and C3 run their last 64,000,000 and 76,500,000 bytes
//     and end at 1024 and 1124 ms: C2 = 1,024,000 µs, C3 = 1,124,000.
//   - C1's 9,500,000 bytes per flow (76 ms) then run from the boundaries
//     at 1024 and 1128 ms, ending at 1100 and 1204 ms: C1 = 1,204,000 µs.
func TestAaloExactCCTs(t *testing.T) {
	for _, tc := range []struct {
		tr   *trace.Trace
		want map[coflow.CoFlowID]coflow.Time
	}{
		{trace.Fig4Trace(), map[coflow.CoFlowID]coflow.Time{1: 156_000, 2: 203_000, 3: 210_000}},        // 1.56t, 2.03t, 2.10t
		{trace.Fig8Trace(), map[coflow.CoFlowID]coflow.Time{1: 355_000, 2: 338_000, 3: 354_000}},        // 3.55t, 3.38t, 3.54t
		{trace.Fig17Trace(), map[coflow.CoFlowID]coflow.Time{1: 1_204_000, 2: 1_024_000, 3: 1_124_000}}, // 12.04t, 10.24t, 11.24t
	} {
		if got := runOn(t, tc.tr, "aalo", Config{}).CCTByID(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s aalo: CCTs %v µs, want %v", tc.tr.Name, got, tc.want)
		}
	}
}

// TestSaathAblationExactCCTs pins the Saath ablations on the Fig. 4 and
// Fig. 8 traces to the microsecond (model as TestFig4ExactCCTs: 1 Gbps
// is 1,000,000 bytes per δ = 8 ms, one unit is 12,500,000 bytes, the
// schedule changes only at δ boundaries). No starvation deadline
// passes: the shortest, 2·C_q times queue 0's 83.9 ms residence, is
// longer than any CoFlow's stay in queue 0 here.
//
// Fig. 4, saath/an+pf+fifo (per-flow thresholds: a width-2 CoFlow
// demotes once a flow has 5,242,880 bytes; FIFO order; work
// conservation on) is the saath walk of TestFig4ExactCCTs boundary for
// boundary, since LCoF's k_c ties wherever it would order two CoFlows:
//   - 0: C1 runs. 8 ms: C2, C3 miss; C2's P2 flow takes the idle P2.
//   - 48 ms: C1 demotes (6,000,000 per flow); C2 (5,000,000 on P2) runs
//     on P1, P2; C3's P3 flow takes P3. 56 ms: C2 demotes (6,000,000 on
//     P2); C3 runs on P2, P3; C1's P1 flow takes P1.
//   - 96 ms: C3 demotes (6,000,000 on P3); in queue 1, C1 (11,000,000
//     and 6,000,000) runs and C2's P2 flow (6,000,000) takes P2. C1 ends
//     at 108 (P1) and 148 ms (P3): C1 = 148,000 µs. C2's P2 flow ends at
//     148 ms.
//   - 112 ms: C1 on P3, C2 (1,000,000 on P1) on P1 and P2; its P1 flow
//     ends at 204 ms: C2 = 203,000 µs. 152 ms: C3 (5,000,000 and
//     6,000,000) runs on P2, P3 and ends at 212 ms: C3 = 210,000 µs.
//
// saath/width-contention (k_c = pending flows) ties the same way: 2, 2,
// 2 until C1's P1 flow ends, then C1 (1) leads, as FIFO has it; so the
// same CCTs.
//
// saath/an+fifo (total bytes: queue 0 below S = 10,485,760, FIFO):
//   - 0: C1 runs (250,000 bytes per ms in total). 8 ms: C2's P2 flow
//     takes P2. 48 ms: C1 demotes (12,000,000); C2 (5,000,000) runs on
//     P1, P2 and C3's P3 flow takes P3, also at 56 ms (C2 7,000,000).
//   - 72 ms: C2 demotes (11,000,000); C3 (3,000,000) runs on P2, P3 and
//     C1's P1 flow (6,000,000) takes P1.
//   - 104 ms: C3 demotes (11,000,000); in queue 1 C1 (10,000,000 and
//     6,000,000) runs, ending at 124 and 156 ms: C1 = 156,000 µs; C2's
//     P2 flow (8,000,000) takes P2 and ends at 140 ms.
//   - 128 ms: C2 runs on P1 (3,000,000) and P2; its P1 flow ends at
//     204 ms: C2 = 203,000 µs. 144 ms: C3's P2 flow (4,000,000) takes P2
//     and ends at 212 ms; 160 ms: its P3 flow (7,000,000) runs and ends
//     at 204 ms: C3 = 210,000 µs.
//
// Fig. 8 (C2 on S1, S2 with 31,250,000 bytes per flow; C1 on S1 and C3
// on S2 with 12,500,000), saath/an+fifo and saath/an+pf+fifo: FIFO puts
// C2, the first arrival, ahead of C1 and C3 in queue 0, and work
// conservation finds both senders closed.
//   - 0: C2 runs; at 48 ms it demotes — 12,000,000 in total (an+fifo)
//     or 6,000,000 per flow over a 5,242,880 threshold (an+pf+fifo).
//   - 48 ms: C1 and C3 run; at 136 ms they demote (11,000,000 over
//     10,485,760, a width-1 CoFlow's threshold either way).
//   - 136 ms: in queue 1, C2 first by arrival runs its last 25,250,000
//     bytes per flow (202 ms), ending at 338 ms: C2 = 338,000 µs. 344 ms:
//     C1 and C3 send their last 1,500,000 and end at 356 ms: C1 =
//     355,000 µs, C3 = 354,000.
//
// saath/width-contention: C1 and C3 (k_c 1) go ahead of C2 (2).
//   - 0: C2 runs alone. 8 ms: C1 and C3 run; C2 waits with 1,000,000 per
//     flow. 96 ms: C1 and C3 demote (11,000,000); C2 runs.
//   - 136 ms: C2 demotes (6,000,000 per flow); in queue 1 C1 and C3 run
//     again and end at 148 ms: C1 = 147,000 µs, C3 = 146,000. 152 ms: C2
//     sends its last 25,250,000 bytes per flow, ending at 354 ms: C2 =
//     354,000 µs — Saath's own Fig. 8 outcome (TestFig8ExactCCTs).
func TestSaathAblationExactCCTs(t *testing.T) {
	for _, tc := range []struct {
		tr    *trace.Trace
		sched string
		want  map[coflow.CoFlowID]coflow.Time
	}{
		{trace.Fig4Trace(), "saath/an+fifo", map[coflow.CoFlowID]coflow.Time{1: 156_000, 2: 203_000, 3: 210_000}},          // 1.56t, 2.03t, 2.10t
		{trace.Fig4Trace(), "saath/an+pf+fifo", map[coflow.CoFlowID]coflow.Time{1: 148_000, 2: 203_000, 3: 210_000}},       // 1.48t, 2.03t, 2.10t
		{trace.Fig4Trace(), "saath/width-contention", map[coflow.CoFlowID]coflow.Time{1: 148_000, 2: 203_000, 3: 210_000}}, // 1.48t, 2.03t, 2.10t
		{trace.Fig8Trace(), "saath/an+fifo", map[coflow.CoFlowID]coflow.Time{1: 355_000, 2: 338_000, 3: 354_000}},          // 3.55t, 3.38t, 3.54t
		{trace.Fig8Trace(), "saath/an+pf+fifo", map[coflow.CoFlowID]coflow.Time{1: 355_000, 2: 338_000, 3: 354_000}},       // 3.55t, 3.38t, 3.54t
		{trace.Fig8Trace(), "saath/width-contention", map[coflow.CoFlowID]coflow.Time{1: 147_000, 2: 354_000, 3: 146_000}}, // 1.47t, 3.54t, 1.46t
	} {
		if got := runOn(t, tc.tr, tc.sched, Config{}).CCTByID(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s %s: CCTs %v µs, want %v", tc.tr.Name, tc.sched, got, tc.want)
		}
	}
}

// TestLWTFExactCCTs pins LWTF on the Fig. 1 and Fig. 8 traces to the
// microsecond (model as TestFig4ExactCCTs: 125 bytes/µs per port, one
// unit is 12,500,000 bytes = 100 ms, the schedule changes only at δ =
// 8 ms boundaries, a port a flow frees stays idle to the next one).
// LWTF orders by t·k — the bottleneck time left at line rate times k_c,
// read from the contention index — ties by ID, and gives each flow in
// that order the residual of its path, which here is a whole port or
// none. Every receiver is distinct, so only senders contend.
//
// Fig. 1 (C1 on P1; C2 on P1, P2, P3; C3 on P2; C4 on P3; one unit per
// flow; arrivals 0, 1, 2, 3 ms):
//   - 0: C1 alone (k = 0) runs on P1.
//   - 8 ms: C1 has 11,500,000 left: t·k = 0.092 s × 1. C3 and C4 are
//     0.1 s × 1, C2 0.1 s × 3. C1 keeps P1, C3 takes P2, C4 takes P3,
//     and C2 finds every sender full.
//   - C1 ends at 100 ms: C1 = 100,000 µs. C3 and C4 run 100 ms from
//     8 ms and end at 108 ms: C3 = 106,000 µs, C4 = 105,000.
//   - 104 ms: C3 and C4 are 0.004 s × 1, C2 0.1 s × 2; C2's P1 flow
//     takes the P1 C1 left, and ends at 204 ms.
//   - 112 ms: C2's P2 and P3 flows take the ports C3 and C4 left at
//     108 ms, and end at 212 ms: C2 = 211,000 µs.
//
// Fig. 8 (C2 on S1, S2 with 31,250,000 bytes per flow, arriving at 0;
// C1 on S1 and C3 on S2 with one unit, at 1 and 2 ms):
//   - 0: C2 alone (k = 0) runs on both.
//   - 8 ms: C2 has 30,250,000 per flow left: 0.242 s × 2. C1 and C3 are
//     0.1 s × 1, so they take S1 and S2 and C2 waits.
//   - C1 and C3 run 100 ms from 8 ms and end at 108 ms: C1 = 107,000
//     µs, C3 = 106,000.
//   - 112 ms: C2 runs its 30,250,000 bytes per flow (242 ms) and ends at
//     354 ms: C2 = 354,000 µs — Saath's Fig. 8 outcome
//     (TestFig8ExactCCTs) for C2, with C1 and C3 40 ms sooner, since
//     LWTF does not demote them at 10 MiB.
func TestLWTFExactCCTs(t *testing.T) {
	for _, tc := range []struct {
		tr   *trace.Trace
		want map[coflow.CoFlowID]coflow.Time
	}{
		{trace.Fig1Trace(), map[coflow.CoFlowID]coflow.Time{1: 100_000, 2: 211_000, 3: 106_000, 4: 105_000}}, // 1.00t, 2.11t, 1.06t, 1.05t
		{trace.Fig8Trace(), map[coflow.CoFlowID]coflow.Time{1: 107_000, 2: 354_000, 3: 106_000}},             // 1.07t, 3.54t, 1.06t
	} {
		if got := runOn(t, tc.tr, "lwtf", Config{}).CCTByID(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s lwtf: CCTs %v µs, want %v", tc.tr.Name, got, tc.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr := trace.Synthesize(smallSynth(1), "det")
	a := runOn(t, tr, "saath", Config{})
	b := runOn(t, tr, "saath", Config{})
	if len(a.CoFlows) != len(b.CoFlows) {
		t.Fatal("different completion counts")
	}
	am, bm := a.CCTByID(), b.CCTByID()
	for id, cct := range am {
		if bm[id] != cct {
			t.Fatalf("coflow %d: %v vs %v", id, cct, bm[id])
		}
	}
}

func smallSynth(seed int64) trace.SynthConfig {
	return trace.SynthConfig{
		Seed: seed, NumPorts: 20, NumCoFlows: 30,
		MeanInterArrival: 30 * coflow.Millisecond,
		SingleFlowFrac:   0.25, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
		SmallFracNarrow: 0.8, SmallFracWide: 0.4,
		MinSmall: coflow.MB, MaxSmall: 50 * coflow.MB,
		MinLarge: 50 * coflow.MB, MaxLarge: 500 * coflow.MB,
	}
}

func TestSyntheticWorkloadAllSchedulers(t *testing.T) {
	tr := trace.Synthesize(smallSynth(2), "small")
	for _, sn := range []string{"saath", "aalo", "varys", "uc-tcp", "lwtf"} {
		res := runOn(t, tr, sn, Config{})
		checkConservation(t, tr, res)
	}
}

func TestDAGDependenciesGateRelease(t *testing.T) {
	u := coflow.Bytes(trace.MicroUnitBytes)
	tr := &trace.Trace{Name: "dag", NumPorts: 4, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: u}}},
		{ID: 2, Arrival: 0, Stage: 1, DependsOn: []coflow.CoFlowID{1},
			Flows: []coflow.FlowSpec{{Src: 1, Dst: 2, Size: u}}},
	}}
	res := runOn(t, tr, "saath", Config{})
	checkConservation(t, tr, res)
	var c1, c2 CoFlowResult
	for _, c := range res.CoFlows {
		if c.ID == 1 {
			c1 = c
		} else {
			c2 = c
		}
	}
	if c2.Arrival < c1.DoneAt {
		t.Fatalf("stage 2 released at %v before stage 1 done at %v", c2.Arrival, c1.DoneAt)
	}
}

func TestDAGCycleDetected(t *testing.T) {
	tr := &trace.Trace{Name: "cycle", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, DependsOn: []coflow.CoFlowID{2},
			Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 1}}},
		{ID: 2, Arrival: 0, DependsOn: []coflow.CoFlowID{1},
			Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 1}}},
	}}
	s, _ := sched.New("saath", sched.DefaultParams())
	if _, err := Run(tr, s, Config{}); err == nil {
		t.Fatal("dependency cycle not detected")
	}
}

func TestStragglerSlowdownExtendsCCT(t *testing.T) {
	tr := &trace.Trace{Name: "slow", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 10 * coflow.MB}}},
	}}
	base := runOn(t, tr, "saath", Config{})
	slowed := runOn(t, tr, "saath", Config{Dynamics: &Dynamics{
		Seed: 1, StragglerProb: 1.0, Slowdown: 4,
	}})
	if slowed.CoFlows[0].CCT < 3*base.CoFlows[0].CCT {
		t.Fatalf("straggler CCT %v not ~4x base %v", slowed.CoFlows[0].CCT, base.CoFlows[0].CCT)
	}
}

func TestRestartLosesProgress(t *testing.T) {
	tr := &trace.Trace{Name: "restart", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 50 * coflow.MB}}},
	}}
	base := runOn(t, tr, "saath", Config{})
	failed := runOn(t, tr, "saath", Config{Dynamics: &Dynamics{
		Seed: 1, RestartProb: 1.0, RestartAt: 0.5,
	}})
	// Losing half the progress costs roughly 50% more time.
	if failed.CoFlows[0].CCT <= base.CoFlows[0].CCT {
		t.Fatalf("restart CCT %v not worse than base %v", failed.CoFlows[0].CCT, base.CoFlows[0].CCT)
	}
}

func TestPipeliningDelaysCompletion(t *testing.T) {
	tr := &trace.Trace{Name: "pipe", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
	}}
	base := runOn(t, tr, "saath", Config{})
	delayed := runOn(t, tr, "saath", Config{Pipelining: &Pipelining{
		Seed: 1, Frac: 1.0, AvailDelay: 200 * coflow.Millisecond,
	}})
	if delayed.CoFlows[0].CCT < base.CoFlows[0].CCT+150*coflow.Millisecond {
		t.Fatalf("pipelined CCT %v vs base %v: delay not applied", delayed.CoFlows[0].CCT, base.CoFlows[0].CCT)
	}
	checkConservation(t, tr, delayed)
}

// nullScheduler never allocates anything; the engine must hit the
// horizon rather than loop forever.
type nullScheduler struct{}

func (nullScheduler) Name() string                            { return "null" }
func (nullScheduler) Arrive(*coflow.CoFlow, coflow.Time)      {}
func (nullScheduler) Depart(*coflow.CoFlow, coflow.Time)      {}
func (nullScheduler) Schedule(*sched.Snapshot) *sched.RateVec { return nil }

func TestHorizonAbortsLivelock(t *testing.T) {
	tr := &trace.Trace{Name: "stuck", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
	}}
	_, err := Run(tr, nullScheduler{}, Config{Horizon: coflow.Second})
	if err == nil {
		t.Fatal("livelock not detected")
	}
}

func TestInvalidTraceRejected(t *testing.T) {
	tr := &trace.Trace{Name: "bad", NumPorts: 1, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 5, Size: 1}}},
	}}
	s, _ := sched.New("saath", sched.DefaultParams())
	if _, err := Run(tr, s, Config{}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

// TestScheduleStats: the engine's one schedule-latency recorder is the
// attached counters' histogram — every round lands in it, and a run
// without counters reads no clock and reports the same result.
func TestScheduleStats(t *testing.T) {
	tr := trace.Synthesize(smallSynth(3), "stats")
	c := &obs.EngineCounters{}
	res := runOn(t, tr, "saath", Config{Counters: c})
	if c.Schedule.Count == 0 || c.Schedule.Count != int64(res.Intervals) {
		t.Fatalf("histogram holds %d schedule calls over %d rounds", c.Schedule.Count, res.Intervals)
	}
	if c.Schedule.SumNs <= 0 || c.Schedule.MaxNs <= 0 {
		t.Fatalf("stats look wrong: %+v", c.Schedule)
	}
	if bare := runOn(t, tr, "saath", Config{}); bare.Makespan != res.Makespan || bare.Intervals != res.Intervals {
		t.Fatal("attaching counters changed the result")
	}
}

func TestIdleGapSkipping(t *testing.T) {
	// Two coflows separated by a long idle gap: runtime should not
	// degrade and both must complete at sane times.
	tr := &trace.Trace{Name: "gap", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
		{ID: 2, Arrival: 3600 * coflow.Second, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}},
	}}
	res := runOn(t, tr, "saath", Config{})
	checkConservation(t, tr, res)
	// The engine steps by δ; far fewer intervals than an hour's worth.
	if res.Intervals > 1000 {
		t.Fatalf("idle gap not skipped: %d intervals", res.Intervals)
	}
}
