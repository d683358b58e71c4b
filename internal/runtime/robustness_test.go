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
