package sim

import (
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/trace"
)

// rogueScheduler misbehaves in a configurable way so the engine's
// allocation audit can be exercised.
type rogueScheduler struct {
	mode string
}

func (r rogueScheduler) Name() string                       { return "rogue-" + r.mode }
func (r rogueScheduler) Arrive(*coflow.CoFlow, coflow.Time) {}
func (r rogueScheduler) Depart(*coflow.CoFlow, coflow.Time) {}

func (r rogueScheduler) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := snap.Allocation()
	for _, c := range snap.Active {
		for _, f := range c.Flows {
			switch r.mode {
			case "oversubscribe":
				// Hand every flow full line rate without drawing the
				// fabric ledger down: two flows on one port overflow it.
				alloc.Set(f.Idx, snap.Fabric.PortRate())
			case "negative":
				alloc.Set(f.Idx, -1)
			case "unknown":
				// An index no live flow holds: past the engine's cap.
				alloc.Set(snap.FlowCap+7, 1)
			case "done":
				c.Complete(f, snap.Now)
				alloc.Set(f.Idx, snap.Fabric.PortRate())
			case "add":
				// No single write is over the line; the two together are.
				alloc.Add(f.Idx, snap.Fabric.PortRate()*0.6)
				alloc.Add(f.Idx, snap.Fabric.PortRate()*0.6)
			}
		}
	}
	return alloc
}

func rogueTrace() *trace.Trace {
	return &trace.Trace{Name: "rogue", NumPorts: 3, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 1, Size: coflow.MB},
			{Src: 0, Dst: 2, Size: coflow.MB},
		}},
	}}
}

func TestValidationCatchesRogueSchedulers(t *testing.T) {
	// The audits of one flow name it as its CoFlow and position.
	names := map[string]string{"negative": "negative rate -1 for flow c1/f0", "done": "for non-sendable flow c1/f0"}
	for _, mode := range []string{"oversubscribe", "negative", "unknown", "done"} {
		_, err := Run(rogueTrace(), rogueScheduler{mode: mode}, Config{})
		if err == nil {
			t.Errorf("mode %q: rogue allocation accepted", mode)
			continue
		}
		if !strings.Contains(err.Error(), "sim:") || !strings.Contains(err.Error(), names[mode]) {
			t.Errorf("mode %q: unexpected error %v", mode, err)
		}
	}
}

// TestValidationNamesLowestOversubscribedPort: the audit's ledgers are
// cleared and checked only on the ports a rate touched, in the order the
// allocation touched them; the port it reports is still the lowest one
// over the line, egress before ingress — on the fabric's last port, on a
// port the allocation reached last, and for a rate built up by Add.
func TestValidationNamesLowestOversubscribedPort(t *testing.T) {
	flows := func(pairs ...[2]int) *trace.Trace {
		spec := &coflow.Spec{ID: 1}
		for _, p := range pairs {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: coflow.PortID(p[0]), Dst: coflow.PortID(p[1]), Size: coflow.MB})
		}
		return &trace.Trace{Name: "rogue", NumPorts: 4, Specs: []*coflow.Spec{spec}}
	}
	for _, tc := range []struct {
		name, mode string
		tr         *trace.Trace
		want       string
	}{
		{"last port", "oversubscribe", flows([2]int{0, 3}, [2]int{1, 3}), "ingress port 3 oversubscribed"},
		{"lowest of several, touched last", "oversubscribe", flows([2]int{2, 3}, [2]int{2, 3}, [2]int{1, 0}, [2]int{1, 0}), "ingress port 0 oversubscribed"},
		{"egress before ingress", "oversubscribe", flows([2]int{1, 2}, [2]int{1, 3}, [2]int{0, 1}, [2]int{3, 1}), "egress port 1 oversubscribed"},
		{"through Add", "add", flows([2]int{0, 3}), "egress port 0 oversubscribed"},
	} {
		_, err := Run(tc.tr, rogueScheduler{mode: tc.mode}, Config{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// lateRogue schedules like Saath until its call number bad, where it
// hands every flow the full line rate: a policy that oversubscribes at a
// known interval.
type lateRogue struct {
	sched.Scheduler
	bad, calls int
}

func (r *lateRogue) Name() string { return "late-rogue" }

func (r *lateRogue) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := r.Scheduler.Schedule(snap)
	if r.calls++; r.calls-1 == r.bad {
		for _, c := range snap.Active {
			for _, f := range c.Flows {
				alloc.Set(f.Idx, snap.Fabric.PortRate())
			}
		}
	}
	return alloc
}

// TestValidationNamesTheInterval: the audit's error says which interval
// broke — its number, its start time and the policy — in front of what
// broke, and the reference stepper fails the run with the same words.
func TestValidationNamesTheInterval(t *testing.T) {
	tr := &trace.Trace{Name: "late", NumPorts: 3, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 1, Size: 400 * coflow.MB},
			{Src: 2, Dst: 1, Size: 400 * coflow.MB},
		}},
	}}
	rogue := func() sched.Scheduler {
		s, err := sched.New("saath", sched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return &lateRogue{Scheduler: s, bad: 412}
	}
	_, err := Run(tr.Clone(), rogue(), Config{})
	const want = "sim: interval 412 (t=3.296s, late-rogue): ingress port 1 oversubscribed: 250000000 > 125000000 B/s"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if _, refErr := runReference(tr.Clone(), rogue(), Config{}); refErr == nil || refErr.Error() != err.Error() {
		t.Fatalf("audit errors differ:\nreference: %v\n   engine: %v", refErr, err)
	}
}

func TestValidationCanBeSkipped(t *testing.T) {
	// With validation off, the oversubscribing scheduler is not caught
	// (the engine happily moves the bytes — that is the caller's risk).
	res, err := Run(rogueTrace(), rogueScheduler{mode: "oversubscribe"}, Config{SkipValidation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoFlows) != 1 {
		t.Fatalf("coflows = %d", len(res.CoFlows))
	}
}

func TestRealSchedulersPassValidation(t *testing.T) {
	// Every registered policy must survive the audit on a contended
	// workload (validation is on by default in every other test too;
	// this one pins the property explicitly).
	tr := trace.Synthesize(smallSynth(5), "audit")
	for _, name := range sched.Names() {
		s, err := sched.New(name, sched.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(tr.Clone(), s, Config{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestUtilizationRecorded(t *testing.T) {
	tr := trace.Synthesize(smallSynth(6), "util")
	res := runOn(t, tr, "saath", Config{})
	if res.AvgEgressUtilization <= 0 || res.AvgEgressUtilization > 1 {
		t.Fatalf("utilization = %v", res.AvgEgressUtilization)
	}
}

func TestWorkConservationRaisesUtilization(t *testing.T) {
	// The design claim behind Fig. 4: work conservation fills ports
	// that all-or-none would leave idle.
	tr := trace.Synthesize(smallSynth(7), "wc-util")
	full := runOn(t, tr, "saath", Config{})
	nowc := runOn(t, tr, "saath/nowc", Config{})
	if full.AvgEgressUtilization < nowc.AvgEgressUtilization {
		t.Fatalf("WC utilization %.3f < no-WC %.3f",
			full.AvgEgressUtilization, nowc.AvgEgressUtilization)
	}
}

func TestStragglerCapKeepsOthersFast(t *testing.T) {
	// A wide coflow with one straggler must not blockade the cluster:
	// the coordinator's observed-throughput cap releases the surplus.
	// Compare a short coflow's CCT with and without the straggler
	// coflow sharing its ports.
	straggled := &trace.Trace{Name: "cap", NumPorts: 4, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 2, Size: 100 * coflow.MB},
			{Src: 1, Dst: 3, Size: 100 * coflow.MB},
		}},
		{ID: 2, Arrival: 100 * coflow.Millisecond, Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 3, Size: coflow.MB},
		}},
	}}
	res := runOn(t, straggled, "saath", Config{Dynamics: &Dynamics{
		Seed: 1, StragglerProb: 1.0, Slowdown: 8,
	}})
	var short CoFlowResult
	for _, c := range res.CoFlows {
		if c.ID == 2 {
			short = c
		}
	}
	// The straggling coflow needs ~6.4s; the 1 MB coflow must ride the
	// released surplus and finish in well under a second.
	if short.CCT > coflow.Second {
		t.Fatalf("short coflow stuck behind capped straggler: CCT %v", short.CCT)
	}
}
