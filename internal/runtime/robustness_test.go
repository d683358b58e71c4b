package runtime

import (
	"sync"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// TestCoordinatorSurvivesAgentCrash: a sending agent that drops
// mid-transfer must not wedge the coordinator — the rounds go on
// against the reduced agent table — and a replacement attached on its
// port picks the flow up (it resends from zero; the coordinator keeps
// the larger count it was told) until the CoFlow completes.
func TestCoordinatorSurvivesAgentCrash(t *testing.T) {
	const delta = 8 * time.Millisecond
	coord, agents, vc := inprocCluster(t, "saath", 2, AdmissionConfig{})
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 4 * coflow.MB}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		boundary(coord, agents, vc, delta)
	}
	coord.dropAgent(0, agents[0]) // the sender crashes: never stepped again
	for i := 0; i < 3; i++ {
		if live := boundary(coord, agents[1:], vc, delta); live != 1 {
			t.Fatalf("round %d after the crash: live = %d, want 1", i, live)
		}
	}
	if n := coord.AgentCount(); n != 1 {
		t.Fatalf("AgentCount = %d after the crash, want 1", n)
	}
	replacement, err := coord.AttachInproc(0)
	if err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, coord, []*InprocAgent{replacement, agents[1]}, vc, delta, 100)
	if res := coord.Results(); len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("results = %+v, want coflow 1", res)
	}
}

// TestCoordinatorIgnoresRogueAgent: an agent for a port outside the
// fabric is refused, and the agent table stays as it was.
func TestCoordinatorIgnoresRogueAgent(t *testing.T) {
	coord, _, _ := inprocCluster(t, "saath", 2, AdmissionConfig{})
	for _, port := range []int{2, 99, -1} {
		if _, err := coord.AttachInproc(port); err == nil {
			t.Fatalf("agent for port %d on a 2-port fabric attached", port)
		}
	}
	if n := coord.AgentCount(); n != 2 {
		t.Fatalf("AgentCount = %d, want 2", n)
	}
}

// stalledLink is an agent whose deliveries do not return until the test
// releases them.
type stalledLink struct {
	entered chan struct{} // closed by the first delivery
	once    sync.Once
	release chan struct{}
}

func (l *stalledLink) Deliver([]FlowOrder) {
	l.once.Do(func() { close(l.entered) })
	<-l.release
}

// TestScheduleSurvivesStalledAgent: a round's deliveries run outside the
// policy and state locks, so an agent that stalls in its delivery holds
// up that round — and the next one, which waits on the round lock — but
// never a registration or the coordinator's counters; once it returns,
// the next round runs.
func TestScheduleSurvivesStalledAgent(t *testing.T) {
	s, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock(time.Unix(0, 0).UTC())
	coord, err := NewCoordinator(CoordinatorConfig{Scheduler: s, NumPorts: 2, PortRate: coflow.Rate(1e6), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AttachInproc(1); err != nil {
		t.Fatal(err)
	}
	stalled := &stalledLink{entered: make(chan struct{}), release: make(chan struct{})}
	coord.setAgent(0, stalled)
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 10 * coflow.MB}}}); err != nil {
		t.Fatal(err)
	}
	stepDone := make(chan struct{})
	go func() {
		coord.StepSchedule()
		close(stepDone)
	}()
	<-stalled.entered

	regDone := make(chan error, 1)
	go func() {
		err := coord.Register(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Src: 1, Dst: 0, Size: coflow.MB}}})
		coord.LiveCount()
		coord.AgentCount()
		coord.AdmissionStats()
		regDone <- err
	}()
	select {
	case err := <-regDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Register blocked behind a stalled agent's delivery")
	}
	close(stalled.release)
	select {
	case <-stepDone:
	case <-time.After(10 * time.Second):
		t.Fatal("StepSchedule did not return once the delivery did")
	}
	if live := coord.StepSchedule(); live != 2 {
		t.Fatalf("the round after the stall saw %d live coflows, want 2", live)
	}
}
