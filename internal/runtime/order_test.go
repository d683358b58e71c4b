package runtime

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
// lowest ID, DELETE, and PUTs that swap a CoFlow for a new one with the
// same or another width (update()).
func TestSnapshotActiveInArrivalOrder(t *testing.T) {
	const (
		nPorts = 6
		delta  = 8 * time.Millisecond
		mb     = 1_000_000
	)
	pol, err := sched.New("aalo", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o := &orderChecked{Scheduler: pol, t: t}
	vc := NewVirtualClock(time.Unix(0, 0).UTC())
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: o, NumPorts: nPorts, PortRate: coflow.Rate(125e6),
		Delta: delta, Clock: vc, Manual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	agents := make([]*InprocAgent, nPorts)
	for p := range agents {
		if agents[p], err = coord.AttachInproc(p); err != nil {
			t.Fatal(err)
		}
	}
	register := func(id int, flows ...coflow.FlowSpec) func() {
		return func() {
			if err := coord.Register(&coflow.Spec{ID: coflow.CoFlowID(id), Flows: flows}); err != nil {
				t.Fatalf("Register(c%d): %v", id, err)
			}
		}
	}
	fl := func(src, dst, size int) coflow.FlowSpec {
		return coflow.FlowSpec{Src: coflow.PortID(src), Dst: coflow.PortID(dst), Size: coflow.Bytes(size)}
	}
	rest := func(method string, id int, body string, want int) func() {
		return func() {
			w := httptest.NewRecorder()
			coord.handleCoFlowByID(w, httptest.NewRequest(method, fmt.Sprintf("/coflows/%d", id), strings.NewReader(body)))
			if w.Code != want {
				t.Fatalf("%s c%d = %d (%s), want %d", method, id, w.Code, strings.TrimSpace(w.Body.String()), want)
			}
		}
	}
	steps := [][]func(){
		{register(5, fl(0, 1, 6*mb)), register(2, fl(0, 2, 3*mb), fl(1, 3, 2*mb)), register(9, fl(2, 0, 20*mb))},
		{register(3, fl(3, 4, 5*mb), fl(0, 5, mb))},
		{rest(http.MethodDelete, 5, "", http.StatusNoContent)},
		{rest(http.MethodPut, 2, fmt.Sprintf(`{"flows":[{"src":0,"dst":2,"size":%d},{"src":4,"dst":1,"size":%d},{"src":5,"dst":3,"size":%d}]}`, 3*mb, 2*mb, mb), http.StatusOK)},
		{register(1, fl(1, 0, 2*mb)), register(7, fl(5, 4, 3*mb))},
		{rest(http.MethodPut, 9, fmt.Sprintf(`{"flows":[{"src":2,"dst":0,"size":%d}]}`, 20*mb), http.StatusOK)},
	}
	for n := 0; ; n++ {
		if n > 100 {
			t.Fatalf("still live after %d boundaries", n)
		}
		vc.Advance(delta)
		for _, a := range agents {
			a.Step(delta)
		}
		coord.ReportInproc(agents)
		if n < len(steps) {
			for _, op := range steps[n] {
				op()
			}
		}
		if coord.StepSchedule() == 0 && n >= len(steps) {
			break
		}
	}
	if o.calls < len(steps) {
		t.Fatalf("%d Schedule calls over the churn", o.calls)
	}
}
