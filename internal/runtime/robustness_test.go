package runtime

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// TestCoordinatorSchedulesWithNoAgents: registering CoFlows before any
// agent connects must not crash or wedge the scheduling loop; once
// agents appear the CoFlow completes.
func TestCoordinatorSchedulesWithNoAgents(t *testing.T) {
	s, _ := sched.New("saath", sched.DefaultParams())
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: s, NumPorts: 2, PortRate: coflow.Rate(20e6), Delta: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	t.Cleanup(func() { coord.Close() })
	client := NewClient(coord.HTTPAddr())
	spec := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 200 * coflow.KB}}}
	if err := client.Register(spec); err != nil {
		t.Fatal(err)
	}
	// Scheduling ticks happen with zero agents; nothing should complete.
	time.Sleep(50 * time.Millisecond)
	if res, _ := client.Results(); len(res) != 0 {
		t.Fatalf("completed without agents: %v", res)
	}
	// Bring the agents up late; the flow must now drain.
	for i := 0; i < 2; i++ {
		a, err := NewAgent(AgentConfig{Port: i, CoordinatorAddr: coord.ControlAddr(), StatsInterval: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
	}
	if _, err := client.WaitForResults(1, 15*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorSurvivesAgentCrash: an agent dropping mid-transfer
// must not wedge the coordinator; its replacement finishes the flow
// (the sender restarts from its own progress tracking — here the new
// agent resends from zero, which the byte-counting receiver tolerates).
func TestCoordinatorSurvivesAgentCrash(t *testing.T) {
	s, _ := sched.New("saath", sched.DefaultParams())
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: s, NumPorts: 2, PortRate: coflow.Rate(5e6), Delta: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	t.Cleanup(func() { coord.Close() })

	recv, err := NewAgent(AgentConfig{Port: 1, CoordinatorAddr: coord.ControlAddr(), StatsInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })

	victim, err := NewAgent(AgentConfig{Port: 0, CoordinatorAddr: coord.ControlAddr(), StatsInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(coord.HTTPAddr())
	spec := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 2 * coflow.MB}}}
	if err := client.Register(spec); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let some bytes move
	victim.Close()                     // crash the sender

	// The coordinator sheds the dead connection and keeps scheduling.
	deadline := time.Now().Add(5 * time.Second)
	for coord.AgentCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if coord.AgentCount() != 1 {
		t.Fatalf("dead agent still counted: %d", coord.AgentCount())
	}

	// A replacement agent for port 0 picks the flow back up.
	replacement, err := NewAgent(AgentConfig{Port: 0, CoordinatorAddr: coord.ControlAddr(), StatsInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replacement.Close() })
	if _, err := client.WaitForResults(1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestGarbageOnControlPort: random bytes on the control listener must
// not take the coordinator down.
func TestGarbageOnControlPort(t *testing.T) {
	s, _ := sched.New("saath", sched.DefaultParams())
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: s, NumPorts: 2, PortRate: coflow.Rate(20e6), Delta: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	t.Cleanup(func() { coord.Close() })
	conn, err := net.Dial("tcp", coord.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("\x00\x00\x00\x05hello garbage that is not a frame"))
	conn.Close()
	time.Sleep(50 * time.Millisecond)
	// Coordinator still serves HTTP.
	if _, err := NewClient(coord.HTTPAddr()).Status(); err != nil {
		t.Fatalf("coordinator down after garbage: %v", err)
	}
}

// alwaysPanics is a policy whose Schedule is broken outright.
type alwaysPanics struct {
	sched.Scheduler
	calls atomic.Int64
}

func (p *alwaysPanics) Schedule(*sched.Snapshot) *sched.RateVec {
	p.calls.Add(1)
	panic("policy bug")
}

// TestServePolicyPanicCostsTheRound: under Serve a policy panic is the
// ticker's to recover — it costs that round, is counted, and the loop
// ticks on — so the process survives a policy that panics on every
// round, registrations and /status still get answered afterwards, and
// /status shows the last panic's value and where it was raised.
func TestServePolicyPanicCostsTheRound(t *testing.T) {
	inner, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pol := &alwaysPanics{Scheduler: inner}
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: pol, NumPorts: 2, PortRate: coflow.Rate(20e6), Delta: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	t.Cleanup(func() { coord.Close() })
	client := NewClient(coord.HTTPAddr())
	if err := client.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { n, _ := coord.FailedRounds(); return n >= 3 })
	if err := client.Register(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Src: 1, Dst: 0, Size: coflow.MB}}}); err != nil {
		t.Fatalf("registration after the policy's panics: %v", err)
	}
	st, err := client.Status()
	if err != nil {
		t.Fatalf("/status after the policy's panics: %v", err)
	}
	if live := int(st["live"].(float64)); live != 2 {
		t.Fatalf("/status live = %d, want 2", live)
	}
	if failed := int64(st["failedRounds"].(float64)); failed < 3 || failed > pol.calls.Load() {
		t.Fatalf("/status failedRounds = %d, want between 3 and the %d Schedule calls", failed, pol.calls.Load())
	}
	if last, _ := st["lastPanic"].(string); !strings.HasPrefix(last, "policy bug\n") || !strings.Contains(last, "alwaysPanics).Schedule") {
		t.Fatalf("/status lastPanic = %q, want the panic value and a stack through the policy", last)
	}
}
