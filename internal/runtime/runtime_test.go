package runtime

import (
	"errors"
	"slices"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"

	_ "saath/internal/core" // register saath
)

func TestCoordinatorRejectsBadConfig(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{NumPorts: 2}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	s, _ := sched.New("saath", sched.DefaultParams())
	if _, err := NewCoordinator(CoordinatorConfig{Scheduler: s}); err == nil {
		t.Fatal("zero ports accepted")
	}
}

// TestCoordinatorSchedulesWithNoAgents: rounds over CoFlows registered
// before any agent attaches must not crash or complete anything; once
// the agents attach, the CoFlow completes.
func TestCoordinatorSchedulesWithNoAgents(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	s, _ := sched.New("saath", sched.DefaultParams())
	var now coflow.Time
	coord, err := NewCoordinator(CoordinatorConfig{Scheduler: s, NumPorts: 2, PortRate: coflow.Rate(125e6)})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 2 * coflow.MB}}}, now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if live := boundary(coord, nil, &now, delta); live != 1 {
			t.Fatalf("boundary %d without agents: live = %d, want 1", i, live)
		}
	}
	agents := make([]*InprocAgent, 2)
	for p := range agents {
		if agents[p], err = coord.AttachInproc(p); err != nil {
			t.Fatal(err)
		}
	}
	driveToCompletion(t, coord, agents, &now, delta, 100)
	if res := coord.Results(); len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("results = %+v, want coflow 1", res)
	}
}

// TestRateEnforcementShapesThroughput: agents move a flow at the rate
// it was ordered, never faster: with the port rate capped at 2 MB/s, a
// 1 MB flow takes its size/rate (524 ms) behind one δ of control lag,
// rounded up to δ.
func TestRateEnforcementShapesThroughput(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	s, _ := sched.New("saath", sched.DefaultParams())
	var now coflow.Time
	rate := coflow.Rate(2e6)
	coord, err := NewCoordinator(CoordinatorConfig{Scheduler: s, NumPorts: 2, PortRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*InprocAgent, 2)
	for p := range agents {
		if agents[p], err = coord.AttachInproc(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Register(&coflow.Spec{ID: 30, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}}, now); err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, coord, agents, &now, delta, 1000)
	send := rate.TimeToSend(coflow.MB)
	want := delta + (send+delta-1)/delta*delta
	if res := coord.Results(); len(res) != 1 || res[0].CCT != want {
		t.Fatalf("results = %+v, want coflow 30 at a CCT of %v", res, want)
	}
}

// TestCoFlowOperationsValidate holds register() to its answers on a
// 4-port coordinator with coflow 1 live: a spec with a port outside
// [0, 4) or negative, no flows or a negative size is refused, and so is
// a live ID; a zero-size flow is accepted. Every refusal leaves the live
// set as it was, and coflow 1 — its runtime state, its flows' progress
// and its place in snap.Active — exactly as it was.
func TestCoFlowOperationsValidate(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 4, AdmissionConfig{})
	live := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 50 * coflow.MB}, {Src: 2, Dst: 3, Size: 50 * coflow.MB}}}
	if err := coord.Register(live, *now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		boundary(coord, agents, now, delta)
	}
	spec := func(id coflow.CoFlowID, src, dst int, size coflow.Bytes) *coflow.Spec {
		return &coflow.Spec{ID: id, Flows: []coflow.FlowSpec{{Src: coflow.PortID(src), Dst: coflow.PortID(dst), Size: size}}}
	}
	refused := errors.New("any validation error")
	cases := []struct {
		name string
		op   func() error
		want error // nil: accepted; refused: any error but the typed ones
	}{
		{"register src out of range", func() error { return coord.Register(spec(2, 4, 1, coflow.MB), *now) }, refused},
		{"register dst out of range", func() error { return coord.Register(spec(2, 0, 4, coflow.MB), *now) }, refused},
		{"register negative src", func() error { return coord.Register(spec(2, -1, 1, coflow.MB), *now) }, refused},
		{"register negative dst", func() error { return coord.Register(spec(2, 0, -1, coflow.MB), *now) }, refused},
		{"register no flows", func() error { return coord.Register(&coflow.Spec{ID: 2}, *now) }, refused},
		{"register negative size", func() error { return coord.Register(spec(2, 0, 1, -5), *now) }, refused},
		{"register live ID", func() error { return coord.Register(spec(1, 0, 1, coflow.MB), *now) }, ErrDuplicate},
		{"register zero size", func() error { return coord.Register(spec(3, 2, 2, 0), *now) }, nil},
	}
	rt := coord.live[1]
	sent := []coflow.Bytes{rt.Flows[0].Sent(), rt.Flows[1].Sent()}
	if sent[0] == 0 || sent[1] == 0 {
		t.Fatalf("coflow 1 moved no bytes before the table (%v): a refusal that restarted it could not be told", sent)
	}
	for _, tc := range cases {
		liveBefore, active := len(coord.live), slices.Clone(coord.snap.Active)
		err := tc.op()
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: %v, want accepted", tc.name, err)
		case tc.want == refused && (err == nil || errors.Is(err, ErrDuplicate) || errors.Is(err, ErrAdmission)):
			t.Errorf("%s: %v, want a validation error", tc.name, err)
		case tc.want != nil && tc.want != refused && !errors.Is(err, tc.want):
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if err != nil && len(coord.live) != liveBefore {
			t.Errorf("%s: refused, but the live count moved from %d to %d", tc.name, liveBefore, len(coord.live))
		}
		if err != nil && (coord.live[1] != rt || rt.Spec != live || len(rt.Flows) != 2 ||
			rt.Flows[0].Sent() != sent[0] || rt.Flows[1].Sent() != sent[1] || !slices.Equal(coord.snap.Active, active)) {
			t.Errorf("%s: refused, but coflow 1 or snap.Active changed", tc.name)
		}
	}
}
