package saath

// Testbed agent-step benchmarks and allocation guards. The in-process
// agent's Step+Report cycle is the testbed's hot loop — it runs once
// per agent per δ boundary, so at 10^5 agents a single stray
// allocation per step becomes 10^5 allocations per boundary and the
// scale story collapses. The cost contract is therefore explicit: one
// steady-state Step+Report against a live coordinator allocates
// exactly nothing, and neither does the coordinator's own boundary
// (StepSchedule) once the live set has settled — however many idle
// ports the cluster has (BENCH_baseline.json's testbed_layer section
// records 0 for both; bench_guards_test.go holds them there).

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/runtime"
	"saath/internal/sched"
	"saath/internal/sweep"
	"saath/internal/testbed"
	"saath/internal/trace"
)

// benchStepDelta is the sync interval the step benchmarks advance by,
// the paper's 8ms default.
const benchStepDelta = 8 * Millisecond

// benchTestbedCluster builds a coordinator on virtual time with
// nPorts in-process agents, registers coflows wide enough to put
// flows on every port — sized in petabytes so nothing completes
// within any benchmark horizon — and pushes one schedule so every
// agent holds rated flows. After one warm-up Step+Report per agent
// everything is steady state.
func benchTestbedCluster(tb testing.TB, nPorts, nCoFlows int) (*runtime.Coordinator, []*runtime.InprocAgent) {
	tb.Helper()
	s, err := sched.New("saath", DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	coord, err := runtime.NewCoordinator(runtime.CoordinatorConfig{
		Scheduler: s, NumPorts: nPorts, PortRate: coflow.GbpsRate(1),
	})
	if err != nil {
		tb.Fatal(err)
	}
	agents := make([]*runtime.InprocAgent, nPorts)
	for i := range agents {
		if agents[i], err = coord.AttachInproc(i); err != nil {
			tb.Fatal(err)
		}
	}
	for id := 0; id < nCoFlows; id++ {
		spec := &Spec{ID: CoFlowID(id + 1)}
		for p := 0; p < nPorts; p++ {
			spec.Flows = append(spec.Flows, FlowSpec{
				Src: PortID(p), Dst: PortID((p + 1) % nPorts), Size: Bytes(1) << 50,
			})
		}
		if err := coord.Register(spec, 0); err != nil {
			tb.Fatal(err)
		}
	}
	coord.StepSchedule(0)
	for _, a := range agents {
		a.Step(benchStepDelta)
	}
	coord.ReportInproc(agents, 0)
	return coord, agents
}

// benchRegisterRetire returns one CoFlow's life on a 64-port cluster
// with nothing else live: Register a four-flow CoFlow, one boundary to
// order its flows, its agents step and report them finished, one
// boundary to retire it. Each cycle registers the CoFlow again, so from
// the second on it is drawn on the flow storage the last one left.
func benchRegisterRetire(tb testing.TB) func() {
	coord, agents := benchTestbedCluster(tb, 64, 0)
	spec := &Spec{ID: 1}
	for p := 0; p < 4; p++ {
		spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(2 * p), Dst: PortID(2*p + 1), Size: 100 * KB})
	}
	busy := agents[:8]
	return func() {
		if err := coord.Register(spec, 0); err != nil {
			tb.Fatal(err)
		}
		coord.StepSchedule(0)
		for _, a := range busy {
			a.Step(benchStepDelta)
		}
		coord.ReportInproc(busy, 0)
		if coord.StepSchedule(0) != 0 {
			tb.Fatal("the CoFlow did not retire in one boundary")
		}
	}
}

// testbedTrace builds a trace shaped like the benchmark's
// coordinator-testbed workload at half its scale: 1,000 ports, one
// agent each, and 1,000 CoFlows 15 ms apart, sized to drain in a few
// simulated seconds.
func testbedTrace() *Trace {
	return trace.Synthesize(trace.SynthConfig{
		Seed:             1,
		NumPorts:         1000,
		NumCoFlows:       1000,
		MeanInterArrival: 15 * Millisecond,
		SingleFlowFrac:   0.23,
		EqualLengthFrac:  0.50 / 0.77,
		WideFracNarrowCF: 0.34 / 0.77,
		SmallFracNarrow:  0.54 / 0.66,
		SmallFracWide:    0.14 / 0.34,
		MinSmall:         2 * MB,
		MaxSmall:         8 * MB,
		MinLarge:         8 * MB,
		MaxLarge:         48 * MB,
	}, "testbed")
}

// benchRunJob returns one testbed.RunJob of testbedTrace under saath:
// a coordinator and its thousand in-process agents from attach to the
// last retirement.
func benchRunJob(tb testing.TB) func() {
	tr := testbedTrace()
	job := sweep.Job{
		Trace:     tr.Name,
		Scheduler: "saath",
		Seed:      1,
		Params:    DefaultParams(),
		Gen:       func() *trace.Trace { return tr },
	}
	return func() {
		res, _, err := testbed.RunJob(job, testbed.Config{})
		if err != nil {
			tb.Fatal(err)
		}
		if len(res.CoFlows) != len(tr.Specs) {
			tb.Fatalf("%d of %d CoFlows completed", len(res.CoFlows), len(tr.Specs))
		}
	}
}

// BenchmarkTestbedAgentStep measures one agent's steady-state boundary
// work — advance every held flow by δ, push the progress report into
// the coordinator — on a 64-port cluster with 4 flows per agent.
func BenchmarkTestbedAgentStep(b *testing.B) {
	coord, agents := benchTestbedCluster(b, 64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agents[0].Step(benchStepDelta)
		coord.ReportInproc(agents[:1], 0)
	}
}

// BenchmarkTestbedBoundary measures one whole steady-state δ boundary
// of the 64-port cluster: every agent steps and reports, then the
// coordinator retires, schedules, encodes and delivers.
func BenchmarkTestbedBoundary(b *testing.B) {
	coord, agents := benchTestbedCluster(b, 64, 4)
	coord.StepSchedule(0) // settle the scheduler's own buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range agents {
			a.Step(benchStepDelta)
		}
		coord.ReportInproc(agents, 0)
		coord.StepSchedule(0)
	}
}
