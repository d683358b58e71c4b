package runtime

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// orderChecked wraps a policy and checks, on every Schedule call, the
// order sched.Snapshot promises for Active: arrival time, then ID. Aalo
// builds its queue order on it (a stable counting pass over Active).
type orderChecked struct {
	sched.Scheduler
	t     *testing.T
	calls int
}

func (o *orderChecked) Schedule(snap *sched.Snapshot) *sched.RateVec {
	o.calls++
	for i := 1; i < len(snap.Active); i++ {
		a, b := snap.Active[i-1], snap.Active[i]
		if a.Arrived > b.Arrived || a.Arrived == b.Arrived && a.ID() >= b.ID() {
			o.t.Errorf("call %d: Active[%d] = c%d@%v before c%d@%v", o.calls, i, a.ID(), a.Arrived, b.ID(), b.Arrived)
		}
	}
	return o.Scheduler.Schedule(snap)
}

// TestSnapshotActiveInArrivalOrder: a coordinator hands every Schedule
// call its live CoFlows in (arrival, ID) order through churn —
// registrations in one boundary out of ID order, a later one with the
// lowest ID, and retirements.
func TestSnapshotActiveInArrivalOrder(t *testing.T) {
	const (
		nPorts = 6
		delta  = 8 * coflow.Millisecond
		mb     = 1_000_000
	)
	pol, err := sched.New("aalo", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o := &orderChecked{Scheduler: pol, t: t}
	var now coflow.Time
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: o, NumPorts: nPorts, PortRate: coflow.Rate(125e6),
	})
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*InprocAgent, nPorts)
	for p := range agents {
		if agents[p], err = coord.AttachInproc(p); err != nil {
			t.Fatal(err)
		}
	}
	fl := func(src, dst, size int) coflow.FlowSpec {
		return coflow.FlowSpec{Src: coflow.PortID(src), Dst: coflow.PortID(dst), Size: coflow.Bytes(size)}
	}
	op := func(what string, id int, err error) {
		if err != nil {
			t.Fatalf("%s(c%d): %v", what, id, err)
		}
	}
	register := func(id int, flows ...coflow.FlowSpec) func() {
		return func() { op("Register", id, coord.Register(&coflow.Spec{ID: coflow.CoFlowID(id), Flows: flows}, now)) }
	}
	steps := [][]func(){
		{register(5, fl(0, 1, 6*mb)), register(2, fl(0, 2, 3*mb), fl(1, 3, 2*mb)), register(9, fl(2, 0, 20*mb))},
		{register(3, fl(3, 4, 5*mb), fl(0, 5, mb))},
		{},
		{},
		{register(1, fl(1, 0, 2*mb)), register(7, fl(5, 4, 3*mb))},
	}
	for n := 0; ; n++ {
		if n > 100 {
			t.Fatalf("still live after %d boundaries", n)
		}
		now += delta
		for _, a := range agents {
			a.Step(delta)
		}
		coord.ReportInproc(agents, now)
		if n < len(steps) {
			for _, op := range steps[n] {
				op()
			}
		}
		if coord.StepSchedule(now) == 0 && n >= len(steps) {
			break
		}
	}
	if o.calls < len(steps) {
		t.Fatalf("%d Schedule calls over the churn", o.calls)
	}
}
