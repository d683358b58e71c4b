package saath

// Scheduler hot-path microbenchmarks. BENCH_baseline.json records the
// map-based engine's allocation counts (the state of the tree before
// the dense-index rewrite); bench_guards_test.go fails if a change
// regresses the steady-state Schedule round back to within 2x of that
// baseline, and pins Saath's round at exactly zero heap allocations.

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
	"saath/internal/trace"
)

// benchPolicies are the per-policy benchmark/guard subjects: Saath and
// every baseline family, over the same cluster the baseline file was
// recorded on.
var benchPolicies = []string{"saath", "aalo", "lwtf", "uc-tcp", "varys"}

// benchSchedCluster builds the benchmark active set: n CoFlows on p
// ports, all live at once (the busy case), with a warmed scheduler and
// a reusable snapshot — one call to round() is one steady-state
// Schedule invocation that schedules afresh.
func benchSchedCluster(tb testing.TB, policy string, n, p int) (round func()) {
	round, _ = benchSchedRounds(tb, policy, n, p)
	return round
}

// benchSchedRounds is benchSchedCluster with both kinds of boundary.
// Before a full round one CoFlow's mutation epoch moves, as a flow
// completing would move it, so a policy that holds its previous decision
// (saath, aalo, uc-tcp) has to work the schedule out again; before a held round
// nothing moves, and those policies hand the decision out again.
func benchSchedRounds(tb testing.TB, policy string, n, p int) (full, held func()) {
	tb.Helper()
	tr := trace.Synthesize(trace.SynthConfig{
		Seed: 42, NumPorts: p, NumCoFlows: n,
		MeanInterArrival: 0,
		SingleFlowFrac:   0.23, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.4,
		SmallFracNarrow: 0.8, SmallFracWide: 0.4,
		MinSmall: coflow.MB, MaxSmall: 100 * coflow.MB,
		MinLarge: 100 * coflow.MB, MaxLarge: coflow.GB,
	}, "bench")
	active := make([]*coflow.CoFlow, len(tr.Specs))
	space := coflow.NewIndexSpace()
	for i, spec := range tr.Specs {
		active[i] = coflow.New(spec)
		space.Assign(active[i])
	}
	fab := fabric.New(p, fabric.DefaultPortRate)
	s, err := sched.New(policy, DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range active {
		s.Arrive(c, 0)
	}
	snap := &sched.Snapshot{
		Now: 0, Active: active, Fabric: fab,
		FlowCap: space.FlowCap(), CoFlowCap: space.CoFlowCap(),
	}
	held = func() {
		fab.Reset()
		s.Schedule(snap)
	}
	full = func() {
		f := active[0].Flows[0] // held back and released again: the epoch moves
		active[0].SetAvailable(f, false)
		active[0].SetAvailable(f, true)
		held()
	}
	full() // warm scratch so measurements see the steady state
	// Each round is the kind it says: the vector's content stamp moves
	// exactly when the policy writes a schedule into it.
	stamp := snap.Alloc.ContentStamp()
	if full(); snap.Alloc.ContentStamp() == stamp {
		tb.Fatalf("%s: a full round did not rewrite the allocation", policy)
	}
	stamp = snap.Alloc.ContentStamp()
	holds := policy == "saath" || policy == "aalo" || policy == "uc-tcp"
	if held(); (snap.Alloc.ContentStamp() == stamp) != holds {
		tb.Fatalf("%s: a round after which nothing moved reissued the allocation = %v, want %v", policy, !holds, holds)
	}
	return full, held
}

// BenchmarkSchedule measures one steady-state Schedule round per
// policy at the baseline scale (500 coflows, 150 ports).
func BenchmarkSchedule(b *testing.B) {
	for _, policy := range benchPolicies {
		b.Run(policy, func(b *testing.B) {
			round := benchSchedCluster(b, policy, 500, 150)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkScheduleQuick is the same measurement at quick scale, for
// fast local iteration.
func BenchmarkScheduleQuick(b *testing.B) {
	for _, policy := range benchPolicies {
		b.Run(policy, func(b *testing.B) {
			round := benchSchedCluster(b, policy, 100, 50)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
