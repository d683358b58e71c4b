package runtime

import (
	"testing"

	"saath/internal/coflow"
)

// TestCoordinatorSurvivesAgentCrash: a sending agent that drops
// mid-transfer must not wedge the coordinator — the rounds go on
// against the reduced agent table — and a replacement attached on its
// port picks the flow up (it resends from zero; the coordinator keeps
// the larger count it was told) until the CoFlow completes.
func TestCoordinatorSurvivesAgentCrash(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 2, AdmissionConfig{})
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 4 * coflow.MB}}}, *now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		boundary(coord, agents, now, delta)
	}
	coord.dropAgent(0, agents[0]) // the sender crashes: never stepped again
	for i := 0; i < 3; i++ {
		if live := boundary(coord, agents[1:], now, delta); live != 1 {
			t.Fatalf("round %d after the crash: live = %d, want 1", i, live)
		}
	}
	if coord.agents[0] != nil || coord.agents[1] != agents[1] {
		t.Fatal("the agent table after the crash is not port 1's agent alone")
	}
	replacement, err := coord.AttachInproc(0)
	if err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, coord, []*InprocAgent{replacement, agents[1]}, now, delta, 100)
	if res := coord.Results(); len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("results = %+v, want coflow 1", res)
	}
}

// TestCoordinatorIgnoresRogueAgent: an agent for a port outside the
// fabric, or for a port whose agent is attached, is refused, and the
// agent table stays as it was.
func TestCoordinatorIgnoresRogueAgent(t *testing.T) {
	coord, agents, _ := inprocCluster(t, "saath", 2, AdmissionConfig{})
	for _, port := range []int{2, 99, -1, 0, 1} {
		if _, err := coord.AttachInproc(port); err == nil {
			t.Fatalf("AttachInproc(%d) on a 2-port fabric with both agents attached succeeded", port)
		}
	}
	if coord.agents[0] != agents[0] || coord.agents[1] != agents[1] {
		t.Fatal("a refused attach changed the agent table")
	}
}

// TestDetachedAgentLosesATakenSlot: the one case where the agents'
// shared slot table differs from agents that keep their own flows. A
// sender crashes holding flow index 0 (c1's one flow, 0→1); a
// replacement on its port finishes c1 from zero, and c2's flow, 2→3, is
// filed under the reused index 0 at port 2's agent. When the crashed
// agent comes back to step and report, it neither moves c2's flow nor
// merges anything, and drops the slot. Agents that kept their own copy
// stepped c1's flow and reported it, and the coordinator dropped the
// report of a retired CoFlow: the results are the same, c1 at a CCT of
// 96 ms and c2 at 48 ms.
func TestDetachedAgentLosesATakenSlot(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 4, AdmissionConfig{})
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 4 * coflow.MB}}}, *now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		boundary(coord, agents, now, delta)
	}
	crashed := agents[0]
	coord.dropAgent(0, crashed) // neither stepped nor reported until it comes back
	replacement, err := coord.AttachInproc(0)
	if err != nil {
		t.Fatal(err)
	}
	running := []*InprocAgent{replacement, agents[1], agents[2], agents[3]}
	driveToCompletion(t, coord, running, now, delta, 100)
	if err := coord.Register(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Src: 2, Dst: 3, Size: 4 * coflow.MB}}}, *now); err != nil {
		t.Fatal(err)
	}
	if f := coord.live[2].Flows[0]; f.Idx != 0 {
		t.Fatalf("c2's flow has index %d, want the reused 0", f.Idx)
	}
	boundary(coord, running, now, delta)
	if e := coord.slots.entries[0]; e.owner != agents[2].id || e.key.CoFlow != 2 {
		t.Fatalf("entry 0 is c%d at agent %d, want c2 at port 2's agent", e.key.CoFlow, e.owner)
	}
	if n := crashed.FlowCount(); n != 1 {
		t.Fatalf("the crashed agent lists %d slots, want the one it was ordered", n)
	}

	*now += delta
	before := coord.slots.entries[0]
	crashed.Step(delta)
	if after := coord.slots.entries[0]; after != before {
		t.Fatalf("the crashed agent stepped c2's flow: %+v, was %+v", after, before)
	}
	sent := coord.live[2].Flows[0].Sent()
	coord.ReportInproc([]*InprocAgent{crashed}, *now)
	if got := coord.live[2].Flows[0].Sent(); got != sent || crashed.FlowCount() != 0 {
		t.Fatalf("the crashed agent's report: c2 sent %d, was %d; it lists %d slots, want none", got, sent, crashed.FlowCount())
	}
	for _, a := range running {
		a.Step(delta)
	}
	coord.ReportInproc(running, *now)
	coord.StepSchedule(*now)
	driveToCompletion(t, coord, append(running, crashed), now, delta, 100)
	res := coord.Results()
	if len(res) != 2 || res[0].ID != 1 || res[0].CCT != 96*coflow.Millisecond || res[1].ID != 2 || res[1].CCT != 48*coflow.Millisecond {
		t.Fatalf("results = %+v, want c1 at a CCT of 96ms and c2 at 48ms", res)
	}
}
