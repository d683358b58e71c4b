package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/sched"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// The engine's interval has two flow passes and picks one per epoch
// from the rated share (planInterval). The dense walk — sumRatesDense,
// moveBytesDense: visit every sendable flow, ask the allocation for its
// rate — is what the engine did on every epoch before, and is the
// oracle here twice over: a probe re-adds every interval's rates with it
// and compares bits, and a twin engine is held on it for the whole run.

// paddedPolicy names every sendable flow its policy left unrated at
// rate zero. A zero rate is nothing to the audit and to the dense walk
// (adds 0.0, moves no bytes), but the allocation now covers the whole
// sendable set, so the engine under it takes the dense side on every
// epoch.
type paddedPolicy struct{ sched.Scheduler }

func (p paddedPolicy) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := p.Scheduler.Schedule(snap)
	for _, c := range snap.Active {
		for _, f := range c.SendableFlows() {
			alloc.Add(f.Idx, 0)
		}
	}
	return alloc
}

// shuffledPolicy re-issues its policy's allocation in a random order, so
// the rated list cannot lean on a CoFlow's flows being rated in Flows
// order, or CoFlows in any order at all.
type shuffledPolicy struct {
	sched.Scheduler
	rng   *rand.Rand
	idx   []int
	rates []coflow.Rate
}

func (p *shuffledPolicy) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := p.Scheduler.Schedule(snap)
	p.idx, p.rates = p.idx[:0], p.rates[:0]
	alloc.Range(func(idx int, r coflow.Rate) bool {
		p.idx, p.rates = append(p.idx, idx), append(p.rates, r)
		return true
	})
	p.rng.Shuffle(len(p.idx), func(i, j int) {
		p.idx[i], p.idx[j] = p.idx[j], p.idx[i]
		p.rates[i], p.rates[j] = p.rates[j], p.rates[i]
	})
	alloc.Reset(snap.FlowCap)
	for i, idx := range p.idx {
		alloc.Set(idx, p.rates[i])
	}
	return alloc
}

// noisyPolicy adds what only an unaudited run lets through: full rate
// for every flow that is done or withheld, a rate for an index no flow
// holds, and a negative rate for one sendable flow its policy left out.
// The dense walk never meets the first two and adds the third without
// moving bytes for it; the rated list has to do the same.
type noisyPolicy struct{ sched.Scheduler }

func (p noisyPolicy) Schedule(snap *sched.Snapshot) *sched.RateVec {
	alloc := p.Scheduler.Schedule(snap)
	negative := false
	for _, c := range snap.Active {
		for _, f := range c.Flows {
			_, rated := alloc.Get(f.Idx)
			switch {
			case !f.Sendable():
				alloc.Set(f.Idx, snap.Fabric.PortRate())
			case !rated && !negative:
				alloc.Set(f.Idx, -5)
				negative = true
			}
		}
	}
	alloc.Set(snap.FlowCap+3, 1)
	return alloc
}

// denseSumProbe re-adds each interval's rates with the dense walk, and
// counts the intervals the engine took on each side of its choice.
type denseSumProbe struct {
	t             *testing.T
	e             *engine
	sparse, dense int
}

func (p *denseSumProbe) Observe(iv *telemetry.Interval) {
	if want := p.e.sumRatesDense(iv.Alloc); math.Float64bits(want) != math.Float64bits(iv.AllocatedRate) {
		p.t.Errorf("interval %d: rates add to %v, dense walk %v", iv.Index, iv.AllocatedRate, want)
	}
	if p.e.rateDriven && iv.Alloc.Len() > 0 {
		p.sparse++
	} else {
		p.dense++
	}
}

// contendedTrace keeps a few dozen multi-flow CoFlows live on a small
// fabric, so an all-or-none policy parks most of them.
func contendedTrace(seed int64) *trace.Trace {
	cfg := smallSynth(seed)
	cfg.NumPorts, cfg.NumCoFlows = 10, 60
	cfg.MeanInterArrival = 10 * coflow.Millisecond
	cfg.SingleFlowFrac, cfg.WideFracNarrowCF = 0.1, 0.6
	return trace.Synthesize(cfg, "contended")
}

// flowsDiffer names the first live flow whose progress differs between
// two engines, walking both in e.active order.
func flowsDiffer(a, b *engine) string {
	if len(a.active) != len(b.active) {
		return fmt.Sprintf("%d live coflows, twin %d", len(a.active), len(b.active))
	}
	for i, c := range a.active {
		for j, f := range c.Flows {
			g := b.active[i].Flows[j]
			if c.FlowID(f) != b.active[i].FlowID(g) || f.Sent() != g.Sent() || f.Done() != g.Done() || f.DoneAt() != g.DoneAt() || f.Restarted != g.Restarted {
				return fmt.Sprintf("flow %+v, twin %+v", *f, *g)
			}
		}
	}
	return ""
}

// stepTwins steps two engines through the same run event by event.
// After every event the clock, the utilisation sum's bits, every live
// flow's Sent/Done/DoneAt and the retire order must agree; at the end
// the whole Result does.
func stepTwins(t *testing.T, name string, got, want *engine) {
	t.Helper()
	for n := 0; ; n++ {
		ok, err := got.step(got.cfg.Delta)
		wok, werr := want.step(want.cfg.Delta)
		if ok != wok || (err == nil) != (werr == nil) {
			t.Fatalf("event %d: step = %v, %v; twin %v, %v", n, ok, err, wok, werr)
		}
		if !ok || err != nil {
			break
		}
		if got.now != want.now || math.Float64bits(got.utilSum) != math.Float64bits(want.utilSum) {
			t.Fatalf("event %d: now %v util %v, twin %v %v", n, got.now, got.utilSum, want.now, want.utilSum)
		}
		if d := flowsDiffer(got, want); d != "" {
			t.Fatalf("event %d: %s", n, d)
		}
		if len(got.result.CoFlows) != len(want.result.CoFlows) {
			t.Fatalf("event %d: %d retired, twin %d", n, len(got.result.CoFlows), len(want.result.CoFlows))
		}
	}
	got.finish()
	want.finish()
	sameResult(t, name, want.result, got.result)
}

// TestRateDrivenIntervalMatchesDenseWalk steps two engines through the
// same run (stepTwins): one picks its flow pass per epoch, the other is
// held on the dense walk. The runs cover stragglers and mid-life
// restarts, pipelining-withheld flows, a DAG, index recycling (CoFlows
// retire and arrive on one boundary all through the contended trace), a
// policy that rates few flows beside ones that rate every flow, and
// allocations issued out of order; the counters show that the choosing
// engine took each side.
func TestRateDrivenIntervalMatchesDenseWalk(t *testing.T) {
	dynamics := Config{Dynamics: &Dynamics{Seed: 11, StragglerProb: 0.2, Slowdown: 3, RestartProb: 0.2, RestartAt: 0.4}}
	pipelined := Config{Pipelining: &Pipelining{Seed: 13, Frac: 0.3, AvailDelay: 40 * coflow.Millisecond}}
	both := Config{Dynamics: dynamics.Dynamics, Pipelining: pipelined.Pipelining}
	unaudited := both
	unaudited.SkipValidation = true
	cases := []struct {
		name      string
		tr        *trace.Trace
		scheduler string
		cfg       Config
		shuffle   bool
		sides     bool // the run must take both sides of the choice
	}{
		{"saath/plain", contendedTrace(1), "saath", Config{}, false, true},
		{"saath/dynamics", contendedTrace(2), "saath", dynamics, false, true},
		{"saath/pipelined", contendedTrace(3), "saath", pipelined, false, true},
		{"saath/shuffled", contendedTrace(4), "saath", both, true, true},
		{"saath/unaudited", contendedTrace(5), "saath", unaudited, true, true},
		{"aalo/shuffled", contendedTrace(6), "aalo", both, true, false},
		{"uc-tcp", contendedTrace(7), "uc-tcp", both, false, false},
		{"varys/shuffled", contendedTrace(8), "varys", dynamics, true, false},
		{"saath/dag", diamondTrace(), "saath", both, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(dense bool) *engine {
				s, err := sched.New(tc.scheduler, sched.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				if tc.shuffle {
					s = &shuffledPolicy{Scheduler: s, rng: rand.New(rand.NewSource(99))}
				}
				if tc.cfg.SkipValidation {
					s = noisyPolicy{s}
				}
				if dense {
					s = paddedPolicy{s}
				}
				e, err := newEngine(tc.tr.Clone(), s, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.loadArrivals()
				return e
			}
			got, want := build(false), build(true)
			sides := &denseSumProbe{t: t, e: got}
			got.cfg.Probes = []telemetry.Probe{sides}
			held := &denseSumProbe{t: t, e: want}
			want.cfg.Probes = []telemetry.Probe{held}
			stepTwins(t, tc.name, got, want)
			if held.sparse > 0 {
				t.Errorf("the padded twin left the dense walk on %d intervals", held.sparse)
			}
			if tc.sides && (sides.sparse == 0 || sides.dense == 0) {
				t.Errorf("%d rate-driven and %d dense intervals: the run did not take both sides", sides.sparse, sides.dense)
			}
		})
	}
}

// forgetfulPolicy moves every stamp its policy could hold something
// under before the policy sees the snapshot: each listed CoFlow's
// progress stamp, so every queue is derived again, and the vector's
// content stamp, so the policy finds its previous decision touched and
// schedules afresh — and the engine, handed a vector under a new stamp,
// audits and plans afresh. The run with nothing held anywhere.
type forgetfulPolicy struct{ sched.Scheduler }

func (p forgetfulPolicy) Schedule(snap *sched.Snapshot) *sched.RateVec {
	for _, c := range snap.Active {
		if p := c.PendingFlows(); len(p) > 0 {
			c.Progress(p[0], p[0].Sent()) // restated: the progress stamp moves
		}
	}
	if snap.Alloc != nil {
		snap.Alloc.Reset(snap.FlowCap)
	}
	return p.Scheduler.Schedule(snap)
}

// TestHeldIntervalMatchesFull steps two engines through the same run
// (stepTwins): one lets Saath or Aalo hold their decisions and keeps its
// own audit verdict, flow pass and rated list over the epochs they do;
// the other's policy never holds, so neither does it. The counters show
// that the first held a good share of its epochs and the second none,
// and that both counted the same flows rated and walked.
func TestHeldIntervalMatchesFull(t *testing.T) {
	dynamics := &Dynamics{Seed: 11, StragglerProb: 0.2, Slowdown: 3, RestartProb: 0.2, RestartAt: 0.4}
	pipelining := &Pipelining{Seed: 13, Frac: 0.3, AvailDelay: 40 * coflow.Millisecond}
	cases := []struct {
		name      string
		tr        *trace.Trace
		scheduler string
		cfg       Config
	}{
		{"saath/plain", contendedTrace(1), "saath", Config{}},
		{"saath/dynamics", contendedTrace(2), "saath", Config{Dynamics: dynamics}},
		{"saath/pipelined", contendedTrace(3), "saath", Config{Pipelining: pipelining}},
		{"saath/unaudited", contendedTrace(4), "saath", Config{Dynamics: dynamics, Pipelining: pipelining, SkipValidation: true}},
		{"aalo/plain", contendedTrace(5), "aalo", Config{}},
		{"aalo/both", contendedTrace(6), "aalo", Config{Dynamics: dynamics, Pipelining: pipelining}},
		{"saath/dag", diamondTrace(), "saath", Config{Dynamics: dynamics, Pipelining: pipelining}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(forgetful bool) (*engine, *obs.EngineCounters) {
				s, err := sched.New(tc.scheduler, sched.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				if forgetful {
					s = forgetfulPolicy{s}
				}
				cfg := tc.cfg
				cfg.Counters = &obs.EngineCounters{}
				e, err := newEngine(tc.tr.Clone(), s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.loadArrivals()
				return e, cfg.Counters
			}
			got, held := build(false)
			want, full := build(true)
			stepTwins(t, tc.name, got, want)
			if full.HeldEpochs != 0 {
				t.Errorf("the forgetful twin held %d epochs", full.HeldEpochs)
			}
			if held.HeldEpochs*5 < held.Epochs {
				t.Errorf("held %d of %d epochs: the run hardly reached the held plan", held.HeldEpochs, held.Epochs)
			}
			held.HeldEpochs, held.Schedule, full.Schedule = 0, obs.LatencyHist{}, obs.LatencyHist{}
			if *held != *full {
				t.Errorf("counters %+v, nothing held %+v", *held, *full)
			}
		})
	}
}

// TestHeldPlanKey: the engine keeps its plan only for the vector it
// planned from, unwritten, over an unchanged live set.
func TestHeldPlanKey(t *testing.T) {
	s, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(contendedTrace(1), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.loadArrivals()
	for len(e.active) < 3 {
		if ok, err := e.step(e.cfg.Delta); !ok || err != nil {
			t.Fatalf("step = %v, %v", ok, err)
		}
	}
	v := sched.NewRateVec(8)
	v.Set(1, 5)
	twin := sched.NewRateVec(8) // v's content stamp on another vector
	for twin.ContentStamp() < v.ContentStamp() {
		twin.Set(2, 7)
	}
	steps := []struct {
		name   string
		change func() *sched.RateVec
	}{
		{"first sight", func() *sched.RateVec { return v }},
		{"written to", func() *sched.RateVec { v.Add(1, 0); return v }},
		{"another vector under the same stamp", func() *sched.RateVec { twin.Set(2, 7); return twin }},
		{"an admission", func() *sched.RateVec { e.admitted++; return twin }},
		{"a retirement", func() *sched.RateVec { e.result.CoFlows = append(e.result.CoFlows, CoFlowResult{}); return twin }},
		{"a sendable set", func() *sched.RateVec {
			c := e.active[1]
			c.SetAvailable(c.Flows[0], !c.Flows[0].Available()) // held back and released again
			c.SetAvailable(c.Flows[0], !c.Flows[0].Available())
			return twin
		}},
		{"no vector", func() *sched.RateVec { return nil }},
	}
	for _, st := range steps {
		alloc := st.change()
		if e.heldPlan(alloc) {
			t.Errorf("%s: the previous plan was kept", st.name)
		}
		if kept := e.heldPlan(alloc); kept != (alloc != nil) {
			t.Errorf("%s: asked again with nothing changed, kept = %v", st.name, kept)
		}
	}
}
