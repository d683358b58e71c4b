package saath

// Testbed agent-step benchmarks and allocation guards. The in-process
// agent's Step+Report cycle is the testbed's hot loop — it runs once
// per agent per δ boundary, so at 10^5 agents a single stray
// allocation per step becomes 10^5 allocations per boundary and the
// scale story collapses. The cost contract is therefore explicit: one
// steady-state Step+Report against a live coordinator allocates
// exactly nothing, and neither does the coordinator's own boundary
// (StepSchedule) once the live set has settled — however many idle
// ports the cluster has (guarded at 0, not 1.25x, in
// BENCH_baseline.json's testbed_layer section). Run
// `make bench-testbed` for the smoke + guards.

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchStepDelta is the sync interval the step benchmarks advance by,
// the paper's 8ms default.
const benchStepDelta = 8 * time.Millisecond

// benchTestbedCluster builds a Manual virtual-clock coordinator with
// nPorts in-process agents, registers coflows wide enough to put
// flows on every port — sized in petabytes so nothing completes
// within any benchmark horizon — and pushes one schedule so every
// agent holds rated flows. After one warm-up Step+Report per agent
// everything is steady state.
func benchTestbedCluster(tb testing.TB, nPorts, nCoFlows int) (*Coordinator, []*InprocAgent) {
	tb.Helper()
	s, err := NewScheduler("saath", DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	vc := NewVirtualClock(time.Unix(0, 0).UTC())
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: s, NumPorts: nPorts, PortRate: GbpsRate(1),
		Delta: benchStepDelta, Clock: vc, Manual: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { coord.Close() })
	agents := make([]*InprocAgent, nPorts)
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
		if err := coord.Register(spec); err != nil {
			tb.Fatal(err)
		}
	}
	coord.StepSchedule()
	for _, a := range agents {
		a.Step(benchStepDelta)
		a.Report()
	}
	return coord, agents
}

// BenchmarkTestbedAgentStep measures one agent's steady-state boundary
// work — advance every held flow by δ, push the progress report into
// the coordinator — on a 64-port cluster with 4 flows per agent.
func BenchmarkTestbedAgentStep(b *testing.B) {
	_, agents := benchTestbedCluster(b, 64, 4)
	a := agents[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step(benchStepDelta)
		a.Report()
	}
}

// testbedBaseline mirrors BENCH_baseline.json's testbed_layer section.
type testbedBaseline struct {
	TestbedLayer struct {
		AgentStep struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
			NsPerOp     float64 `json:"ns_per_op"`
		} `json:"agent_step"`
		Boundary *struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"boundary"`
	} `json:"testbed_layer"`
}

// readTestbedBaseline loads BENCH_baseline.json's testbed_layer section.
func readTestbedBaseline(t *testing.T) testbedBaseline {
	t.Helper()
	raw, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base testbedBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestTestbedLayerGuards enforces the testbed cost contract: a
// steady-state agent Step+Report allocates exactly nothing.
func TestTestbedLayerGuards(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := readTestbedBaseline(t)
	if base.TestbedLayer.AgentStep.NsPerOp == 0 {
		t.Fatal("testbed_layer.agent_step missing from BENCH_baseline.json")
	}
	if base.TestbedLayer.AgentStep.AllocsPerOp != 0 {
		t.Fatalf("testbed_layer.agent_step baseline records %.0f allocs/op; the contract is exactly 0",
			base.TestbedLayer.AgentStep.AllocsPerOp)
	}

	_, agents := benchTestbedCluster(t, 64, 4)
	a := agents[0]
	if got := testing.AllocsPerRun(200, func() {
		a.Step(benchStepDelta)
		a.Report()
	}); got != 0 {
		t.Errorf("agent step: %.1f allocs/op, want exactly 0", got)
	}
}

// BenchmarkTestbedBoundary measures one whole steady-state δ boundary
// of the 64-port cluster: every agent steps and reports, then the
// coordinator retires, schedules, encodes and delivers.
func BenchmarkTestbedBoundary(b *testing.B) {
	coord, agents := benchTestbedCluster(b, 64, 4)
	coord.StepSchedule() // settle the scheduler's own buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range agents {
			a.Step(benchStepDelta)
			a.Report()
		}
		coord.StepSchedule()
	}
}

// TestCoordinatorBoundaryZeroAlloc enforces the coordinator's side of
// the cost contract: with the live set settled, a StepSchedule — retire
// pass, Schedule over the retained snapshot, per-port order buffers,
// in-process delivery — allocates exactly nothing; and the same live
// set costs the same on a cluster with 64 times the ports, i.e. a
// boundary does not pay for idle ports. Alloc counts only: timings
// belong to the repo benchmark.
func TestCoordinatorBoundaryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := readTestbedBaseline(t).TestbedLayer.Boundary
	if b == nil || b.AllocsPerOp != 0 {
		t.Fatalf("testbed_layer.boundary baseline = %+v; the contract is exactly 0 allocs/op", b)
	}
	coord, _ := benchTestbedCluster(t, 64, 4)
	coord.StepSchedule() // the cluster's first round grew the buffers; this one settles the scheduler's
	if got := testing.AllocsPerRun(200, func() { coord.StepSchedule() }); got != 0 {
		t.Errorf("steady-state boundary: %.1f allocs/op, want exactly 0", got)
	}

	// The same live set — 4 coflows over ports 0..63 — on 64 and on
	// 4,096 ports: a whole boundary (the busy agents step and report, the
	// coordinator schedules and delivers) costs the same.
	boundary := func(nPorts int) float64 {
		coord, agents := benchTestbedCluster(t, nPorts, 0)
		for id := 1; id <= 4; id++ {
			spec := &Spec{ID: CoFlowID(id)}
			for p := 0; p < 64; p++ {
				spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(p), Dst: PortID((p + 1) % 64), Size: Bytes(1) << 50})
			}
			if err := coord.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
		step := func() {
			for _, a := range agents[:64] {
				a.Step(benchStepDelta)
				a.Report()
			}
			coord.StepSchedule()
		}
		step()
		step()
		return testing.AllocsPerRun(200, step)
	}
	if small, large := boundary(64), boundary(4096); small != large {
		t.Errorf("the same live set allocates %.1f per boundary on 64 ports but %.1f on 4096: a boundary scales with idle ports", small, large)
	}
}
