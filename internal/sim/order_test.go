package sim

import (
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/trace"
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
			o.t.Errorf("call %d at %v: Active[%d] = c%d@%v before c%d@%v", o.calls, snap.Now, i, a.ID(), a.Arrived, b.ID(), b.Arrived)
		}
	}
	return o.Scheduler.Schedule(snap)
}

// TestSnapshotActiveInArrivalOrder: the engine hands every Schedule call
// its live CoFlows in (arrival, ID) order, which is not the order it
// admits them in. Several CoFlows land in one δ out of ID order and are
// admitted at its boundary in trace order, each charged from its own
// arrival — plain and with pipelining withholding and releasing flows;
// and a DAG dependent is admitted, charged from the boundary that
// releases it, ahead of a CoFlow that arrived before that boundary.
func TestSnapshotActiveInArrivalOrder(t *testing.T) {
	ms := coflow.Millisecond
	fl := func(src, dst coflow.PortID, size coflow.Bytes) coflow.FlowSpec {
		return coflow.FlowSpec{Src: src, Dst: dst, Size: size}
	}
	unsorted := &trace.Trace{Name: "unsorted", NumPorts: 4, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 7 * ms, Flows: []coflow.FlowSpec{fl(0, 1, 3*coflow.MB), fl(2, 3, coflow.MB)}},
		{ID: 2, Arrival: 20 * ms, Flows: []coflow.FlowSpec{fl(0, 2, 2*coflow.MB)}},
		{ID: 3, Arrival: 2 * ms, Flows: []coflow.FlowSpec{fl(0, 3, 4*coflow.MB), fl(1, 2, 2*coflow.MB)}},
		{ID: 4, Arrival: 9 * ms, Flows: []coflow.FlowSpec{fl(1, 2, coflow.MB)}},
		{ID: 5, Arrival: 0, Flows: []coflow.FlowSpec{fl(2, 0, 5*coflow.MB)}},
		{ID: 6, Arrival: 23 * ms, Flows: []coflow.FlowSpec{fl(3, 1, 2*coflow.MB)}},
		{ID: 7, Arrival: 17 * ms, Flows: []coflow.FlowSpec{fl(2, 1, 3*coflow.MB)}},
	}}
	dag := &trace.Trace{Name: "dag", NumPorts: 4, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{fl(0, 1, coflow.MB)}},
		{ID: 2, Arrival: 0, DependsOn: []coflow.CoFlowID{1}, Flows: []coflow.FlowSpec{fl(1, 2, 3*coflow.MB), fl(1, 3, coflow.MB)}},
		{ID: 3, Arrival: 12 * ms, Flows: []coflow.FlowSpec{fl(1, 2, 2*coflow.MB), fl(0, 3, coflow.MB)}},
		{ID: 4, Arrival: 0, DependsOn: []coflow.CoFlowID{3}, Flows: []coflow.FlowSpec{fl(2, 0, 2*coflow.MB)}},
		{ID: 5, Arrival: 30 * ms, Flows: []coflow.FlowSpec{fl(3, 0, 4*coflow.MB)}},
	}}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		cfg  Config
	}{
		{"plain", unsorted, Config{}},
		{"pipelining", unsorted, Config{Pipelining: &Pipelining{Seed: 2, Frac: 0.5, AvailDelay: 16 * coflow.Millisecond}}},
		{"dag", dag, Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := sched.New("aalo", sched.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			o := &orderChecked{Scheduler: pol, t: t}
			if _, err := Run(tc.tr.Clone(), o, tc.cfg); err != nil {
				t.Fatal(err)
			}
			if o.calls == 0 {
				t.Fatal("no Schedule call")
			}
		})
	}
}
