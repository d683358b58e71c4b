package telemetry

import (
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"saath/internal/coflow"
	"saath/internal/queues"
	"saath/internal/sched"
)

// testLadder is a tiny 3-queue ladder with thresholds 100 and 1000
// bytes, so tests move coflows between queues with small byte counts.
func testLadder() queues.Config {
	return queues.Config{NumQueues: 3, StartThreshold: 100, Growth: 10}
}

// trackedCoflow builds an indexed two-flow coflow.
func trackedCoflow(id coflow.CoFlowID) *coflow.CoFlow {
	c := coflow.New(&coflow.Spec{ID: id, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 2, Size: 100 * coflow.MB},
		{Src: 1, Dst: 2, Size: 100 * coflow.MB},
	}})
	return c
}

func TestQueueTrackerTransitions(t *testing.T) {
	qt := newQueueTracker(testLadder(), false)
	c := trackedCoflow(1)
	coflow.EnsureIndexed([]*coflow.CoFlow{c})
	active := []*coflow.CoFlow{c}

	// First sight: entering the ladder is not a transition.
	if p, d := qt.observe(active); p != 0 || d != 0 {
		t.Fatalf("first observation counted transitions: %d/%d", p, d)
	}
	// No progress: no transition.
	if p, d := qt.observe(active); p != 0 || d != 0 {
		t.Fatalf("idle observation counted transitions: %d/%d", p, d)
	}
	// Total bytes cross the q0 threshold (100): one demotion.
	c.Progress(c.Flows[0], 150)
	if p, d := qt.observe(active); p != 0 || d != 1 {
		t.Fatalf("q0→q1 demotion: %d/%d, want 0/1", p, d)
	}
	// Cross the q1 threshold (1000): another demotion.
	c.Progress(c.Flows[1], 2000)
	if p, d := qt.observe(active); p != 0 || d != 1 {
		t.Fatalf("q1→q2 demotion: %d/%d, want 0/1", p, d)
	}
	// A restart resets progress: promotion back to q0.
	c.Restart(c.Flows[0])
	c.Restart(c.Flows[1])
	if p, d := qt.observe(active); p != 1 || d != 0 {
		t.Fatalf("restart promotion: %d/%d, want 1/0", p, d)
	}
	// The level histogram saw every placement: q0,q0,q1,q2,q0.
	lvl := qt.level.Export()
	if lvl.Count != 5 || lvl.Buckets[0].Count != 3 || lvl.Buckets[1].Count != 1 || lvl.Buckets[2].Count != 1 {
		t.Fatalf("level histogram = %+v", lvl)
	}
}

// TestQueueTrackerPlacementRules: Saath's per-flow rule (Eq. 1)
// demotes on max-sent × width; Aalo's on total bytes — the per-flow
// rule fires earlier on skewed progress.
func TestQueueTrackerPlacementRules(t *testing.T) {
	c := trackedCoflow(1)
	coflow.EnsureIndexed([]*coflow.CoFlow{c})
	c.Progress(c.Flows[0], 60) // total 60 < 100, but m_c·N = 120 ≥ 100

	total := newQueueTracker(testLadder(), false)
	if q := total.place(c); q != 0 {
		t.Fatalf("total-bytes placement = %d, want 0", q)
	}
	perFlow := newQueueTracker(testLadder(), true)
	if q := perFlow.place(c); q != 1 {
		t.Fatalf("per-flow placement = %d, want 1", q)
	}
}

// TestQueueTrackerIndexRecycling: a new CoFlow occupying a departed
// CoFlow's dense index slot must not inherit its predecessor's queue.
func TestQueueTrackerIndexRecycling(t *testing.T) {
	qt := newQueueTracker(testLadder(), false)
	space := coflow.NewIndexSpace()
	old := trackedCoflow(1)
	space.Assign(old)
	oldIdx := old.Idx
	old.Progress(old.Flows[0], 5000) // deep in q2
	qt.observe([]*coflow.CoFlow{old})
	space.Release(old)

	fresh := trackedCoflow(2)
	space.Assign(fresh) // reuses old's index slot
	if fresh.Idx != oldIdx {
		t.Fatalf("test setup: index not recycled (%d vs %d)", fresh.Idx, oldIdx)
	}
	// A fresh coflow in q0 at a recycled slot: no phantom promotion.
	if p, d := qt.observe([]*coflow.CoFlow{fresh}); p != 0 || d != 0 {
		t.Fatalf("recycled slot counted transitions: %d/%d", p, d)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("hm", []float64{0, 1, 4})
	h.ObserveN([]int{0, 1, 3}, 1)
	h.ObserveN([]int{0, 2, 9}, 1)
	d := h.Export()
	if d.Intervals != 2 || len(d.Ports) != 3 {
		t.Fatalf("dump = %+v", d)
	}
	p0, p1, p2 := d.Ports[0], d.Ports[1], d.Ports[2]
	if p0.Sum != 0 || p0.Counts[0] != 2 {
		t.Fatalf("port 0 = %+v", p0)
	}
	if p1.Sum != 3 || p1.Max != 2 || p1.Counts[1] != 1 || p1.Counts[2] != 1 {
		t.Fatalf("port 1 = %+v", p1)
	}
	if p2.Sum != 12 || p2.Max != 9 || p2.Counts[2] != 1 || p2.Overflow != 1 {
		t.Fatalf("port 2 = %+v", p2)
	}

	// Merge doubles everything; Clone keeps the source intact.
	m := d.Clone()
	m.Merge(&d)
	if m.Intervals != 4 || m.Ports[2].Sum != 24 || m.Ports[2].Overflow != 2 || m.Ports[2].Max != 9 {
		t.Fatalf("merged = %+v", m.Ports[2])
	}
	if d.Ports[2].Sum != 12 {
		t.Fatal("Merge mutated its argument")
	}
}

// suiteWithTransitions drives a Suite with the spatial consumers
// enabled over a three-interval story: idle, progress past the q0
// threshold, restart.
func suiteWithTransitions(t *testing.T, spec Spec) *Metrics {
	t.Helper()
	s := NewSuite(spec)
	c := trackedCoflow(1)
	flowCap, _ := coflow.EnsureIndexed([]*coflow.CoFlow{c})
	alloc := sched.NewRateVec(flowCap)
	iv := &Interval{
		Index: 0, Delta: coflow.Millisecond, NumPorts: 4, PortRate: 1000,
		Active: []*coflow.CoFlow{c}, Alloc: alloc, Admitted: 1,
	}
	s.Observe(iv)
	c.Progress(c.Flows[0], 150)
	iv.Index, iv.Now = 1, coflow.Millisecond
	s.Observe(iv)
	c.Progress(c.Flows[0], 0)
	iv.Index, iv.Now = 2, 2*coflow.Millisecond
	s.Observe(iv)
	return s.Metrics()
}

func TestSuiteQueueTransitionsAndHeatmap(t *testing.T) {
	m := suiteWithTransitions(t, Spec{
		Enabled: true, Seed: 3,
		QueueTransitions: true, TransitionQueues: testLadder(),
		PortHeatmap: true,
	})
	demos := m.FindSeries(SeriesQueueDemotions)
	promos := m.FindSeries(SeriesQueuePromotions)
	if demos == nil || promos == nil {
		t.Fatal("transition series missing")
	}
	if got := demos.Mean * float64(demos.Count); got != 1 {
		t.Fatalf("total demotions = %v, want 1", got)
	}
	if got := promos.Mean * float64(promos.Count); got != 1 {
		t.Fatalf("total promotions = %v, want 1", got)
	}
	if h := m.FindHistogram(HistQueueLevel); h == nil || h.Count != 3 {
		t.Fatalf("queue-level histogram = %+v", h)
	}
	eg := m.FindHeatmap(HeatmapEgressOccupancy)
	in := m.FindHeatmap(HeatmapIngressOccupancy)
	if eg == nil || in == nil {
		t.Fatal("heatmaps missing")
	}
	if eg.Intervals != 3 || len(eg.Ports) != 4 {
		t.Fatalf("egress heatmap = %+v", eg)
	}
	// Both flows converge on port 2: ingress occupancy 2 every interval.
	if p := in.Ports[2]; p.Sum != 6 || p.Max != 2 {
		t.Fatalf("ingress port 2 = %+v", p)
	}
	// The heatmap drilldown renders, busiest port first.
	rows := HeatmapRows(in, 2, func(p *HeatmapPortDump) string { return strconv.Itoa(p.Port) })
	if len(rows) == 0 || rows[0].Label != "2" {
		t.Fatalf("heatmap rows = %+v", rows)
	}
	// Everything round-trips through JSON without loss (the shard-merge
	// byte-identity contract).
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Metrics
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("metrics with heatmaps do not round-trip through JSON")
	}
}

// TestSuiteTransitionsDisabledByDefault: the default spec records none
// of the spatial consumers — no extra series, histograms or heatmaps.
func TestSuiteTransitionsDisabledByDefault(t *testing.T) {
	m := suiteWithTransitions(t, Spec{Enabled: true, Seed: 3})
	if m.FindSeries(SeriesQueueDemotions) != nil || m.FindHistogram(HistQueueLevel) != nil {
		t.Fatal("transition telemetry collected without QueueTransitions")
	}
	if len(m.Heatmaps) != 0 {
		t.Fatal("heatmaps collected without PortHeatmap")
	}
}

func TestHeatmapRowsOrdering(t *testing.T) {
	h := NewHeatmap("hm", nil)
	h.ObserveN([]int{5, 0, 9, 9}, 1)
	d := h.Export()
	rows := HeatmapRows(&d, 2, func(p *HeatmapPortDump) string { return "p" })
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (cap)", len(rows))
	}
	// Ports 2 and 3 tie at sum 9: lower port wins; idle port 1 dropped.
	if rows[0].Mean != 9 || rows[1].Mean != 9 {
		t.Fatalf("row means = %v/%v", rows[0].Mean, rows[1].Mean)
	}
	all := HeatmapRows(&d, 0, func(p *HeatmapPortDump) string { return "p" })
	if len(all) != 3 {
		t.Fatalf("uncapped rows = %d, want 3 busy ports", len(all))
	}
}

// TestQueueTrackerSpecDefaults: enabling transitions with a zero
// ladder falls back to the paper's default queue configuration, and a
// partially specified ladder is normalized field by field (an
// unfilled StartThreshold would otherwise pin every CoFlow to the
// last queue and zero out the transition series).
func TestQueueTrackerSpecDefaults(t *testing.T) {
	spec := Spec{Enabled: true, QueueTransitions: true}.withDefaults()
	if !reflect.DeepEqual(spec.TransitionQueues, queues.Default()) {
		t.Fatalf("TransitionQueues = %+v", spec.TransitionQueues)
	}
	partial := Spec{Enabled: true, QueueTransitions: true,
		TransitionQueues: queues.Config{NumQueues: 8}}.withDefaults()
	if partial.TransitionQueues.NumQueues != 8 {
		t.Fatalf("explicit NumQueues lost: %+v", partial.TransitionQueues)
	}
	if err := partial.TransitionQueues.Validate(); err != nil {
		t.Fatalf("partial ladder not normalized: %v", err)
	}
}
