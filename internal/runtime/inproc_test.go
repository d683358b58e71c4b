package runtime

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// TestSlotEntryLayout pins the coordinator's per-flow records on a
// 64-bit platform: a slot-table entry is 48 bytes (owner and done share
// the word after the key) and an order 40.
func TestSlotEntryLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(slotEntry{}); got != 48 {
		t.Errorf("slotEntry is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(FlowOrder{}); got != 40 {
		t.Errorf("FlowOrder is %d bytes, want 40", got)
	}
}

// inprocCluster builds a coordinator with nPorts in-process agents
// attached, and the virtual time its driver moves, at 0.
func inprocCluster(t *testing.T, policy string, nPorts int, adm AdmissionConfig) (*Coordinator, []*InprocAgent, *coflow.Time) {
	t.Helper()
	s, err := sched.New(policy, sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: s, NumPorts: nPorts, PortRate: coflow.Rate(125e6), // 1 Gbps
		Admission: adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*InprocAgent, nPorts)
	for i := range agents {
		if agents[i], err = coord.AttachInproc(i); err != nil {
			t.Fatal(err)
		}
	}
	return coord, agents, new(coflow.Time)
}

// boundary runs one δ boundary the way testbed.RunJob does: time
// moves, every agent steps and reports, then the schedule round. It
// returns the round's live count.
func boundary(coord *Coordinator, agents []*InprocAgent, now *coflow.Time, delta coflow.Time) int {
	*now += delta
	for _, a := range agents {
		a.Step(delta)
	}
	coord.ReportInproc(agents, *now)
	return coord.StepSchedule(*now)
}

// driveToCompletion advances virtual δ boundaries until every live
// coflow completes (or maxSteps passes, which fails the test).
func driveToCompletion(t *testing.T, coord *Coordinator, agents []*InprocAgent, now *coflow.Time, delta coflow.Time, maxSteps int) {
	t.Helper()
	for step := 0; step < maxSteps; step++ {
		if live := boundary(coord, agents, now, delta); live == 0 && step > 0 {
			return
		}
	}
	t.Fatalf("coflows still live after %d boundaries", maxSteps)
}

// TestInprocEndToEnd: a coflow registered against a coordinator
// completes through the in-process agent path, with CCT measured in
// virtual time only.
func TestInprocEndToEnd(t *testing.T) {
	delta := 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 4, AdmissionConfig{})
	spec := &coflow.Spec{ID: 7, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 1, Size: 4 * coflow.MB},
		{Src: 2, Dst: 3, Size: 2 * coflow.MB},
	}}
	if err := coord.Register(spec, *now); err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, coord, agents, now, delta, 10000)
	res := coord.Results()
	if len(res) != 1 || res[0].ID != 7 {
		t.Fatalf("results = %+v, want coflow 7", res)
	}
	// 4 MB at 1 Gbps is ~32ms of service plus the one-δ schedule push
	// lag; virtual CCT must land in that ballpark, not at wall scale.
	if res[0].CCT < 32*coflow.Millisecond || res[0].CCT > 200*coflow.Millisecond {
		t.Fatalf("virtual CCT %v outside the plausible window", res[0].CCT)
	}
	if got := res[0].RegisteredAt; got != 0 {
		t.Fatalf("RegisteredAt = %v, want the virtual epoch", got)
	}
}

// TestInprocDeterminism: two identical manual runs produce identical
// results — byte-for-byte the same completion times in virtual time.
func TestInprocDeterminism(t *testing.T) {
	run := func() []CoFlowResult {
		delta := 8 * coflow.Millisecond
		coord, agents, now := inprocCluster(t, "saath", 6, AdmissionConfig{})
		for id := 1; id <= 8; id++ {
			spec := &coflow.Spec{ID: coflow.CoFlowID(id), Flows: []coflow.FlowSpec{
				{Src: coflow.PortID(id % 6), Dst: coflow.PortID((id + 3) % 6), Size: coflow.Bytes(id) * coflow.MB},
			}}
			*now += coflow.Millisecond
			if err := coord.Register(spec, *now); err != nil {
				t.Fatal(err)
			}
		}
		driveToCompletion(t, coord, agents, now, delta, 10000)
		return coord.Results()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d diverged:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestResultsSortedByID: results come back ordered by coflow ID even
// when completions land in a different order.
func TestResultsSortedByID(t *testing.T) {
	delta := 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 4, AdmissionConfig{})
	// Bigger IDs get smaller flows, so they complete first.
	for id := 1; id <= 4; id++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(id), Flows: []coflow.FlowSpec{
			{Src: coflow.PortID(id - 1), Dst: coflow.PortID(id % 4), Size: coflow.Bytes(5-id) * 4 * coflow.MB},
		}}
		if err := coord.Register(spec, *now); err != nil {
			t.Fatal(err)
		}
	}
	driveToCompletion(t, coord, agents, now, delta, 10000)
	res := coord.Results()
	if len(res) != 4 {
		t.Fatalf("want 4 results, got %d", len(res))
	}
	for i, r := range res {
		if r.ID != coflow.CoFlowID(i+1) {
			t.Fatalf("results not ID-sorted: %+v", res)
		}
	}
	// And the larger flow of coflow 1 must not have completed first.
	if res[3].CompletedAt >= res[0].CompletedAt {
		t.Fatal("expected coflow 4 (smallest) to finish before coflow 1 (largest); sort is hiding nothing")
	}
}

// TestArrivalTimeAdmission: admission decisions happen per arrival
// against the live token bucket — a burst beyond the bucket is shed at
// arrival time, and later arrivals (after refill) are admitted again.
func TestArrivalTimeAdmission(t *testing.T) {
	coord, _, now := inprocCluster(t, "saath", 4, AdmissionConfig{RatePerSec: 100, Burst: 2})
	mkSpec := func(id int) *coflow.Spec {
		return &coflow.Spec{ID: coflow.CoFlowID(id), Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 1, Size: coflow.MB}}}
	}
	// Burst of 4 at t=0: bucket depth 2 admits exactly 2.
	var rejected int
	for id := 1; id <= 4; id++ {
		if err := coord.Register(mkSpec(id), *now); errors.Is(err, ErrAdmission) {
			rejected++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if rejected != 2 {
		t.Fatalf("burst of 4 over depth 2: rejected %d, want 2", rejected)
	}
	// 30ms later the bucket refilled 3 tokens: the next arrival is
	// admitted — the decision tracks live state, not a batch snapshot.
	*now += 30 * coflow.Millisecond
	if err := coord.Register(mkSpec(5), *now); err != nil {
		t.Fatalf("post-refill arrival rejected: %v", err)
	}
	admitted, rej := coord.AdmissionStats()
	if admitted != 3 || rej != 2 {
		t.Fatalf("AdmissionStats = (%d, %d), want (3, 2)", admitted, rej)
	}
}

// TestMaxLiveAdmission: the live-coflow cap rejects at arrival time
// and opens up again once completions retire.
func TestMaxLiveAdmission(t *testing.T) {
	delta := 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 4, AdmissionConfig{MaxLive: 2})
	mkSpec := func(id int) *coflow.Spec {
		return &coflow.Spec{ID: coflow.CoFlowID(id), Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 1, Size: coflow.MB}}}
	}
	for id := 1; id <= 2; id++ {
		if err := coord.Register(mkSpec(id), *now); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Register(mkSpec(3), *now); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third concurrent coflow: err = %v, want ErrAdmission", err)
	}
	driveToCompletion(t, coord, agents, now, delta, 10000)
	if err := coord.Register(mkSpec(4), *now); err != nil {
		t.Fatalf("arrival after retirement rejected: %v", err)
	}
}

// TestDuplicateRegisterInproc: a duplicate ID is a structural error,
// not an admission drop, and consumes no admission budget.
func TestDuplicateRegisterInproc(t *testing.T) {
	coord, _, _ := inprocCluster(t, "saath", 2, AdmissionConfig{RatePerSec: 1000, Burst: 10})
	spec := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: coflow.MB}}}
	if err := coord.Register(spec, 0); err != nil {
		t.Fatal(err)
	}
	if err := coord.Register(spec, 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate register: err = %v, want ErrDuplicate", err)
	}
	if _, rejected := coord.AdmissionStats(); rejected != 0 {
		t.Fatalf("duplicate counted as an admission rejection")
	}
}

// TestReregisteredIDStartsAfresh: a CoFlow registered again under the ID
// of one that completed and retired is a new CoFlow at its agent. One
// 8 MiB flow runs 0→1 at 1 Gbps: 67 ms of sending, nine δ behind one δ
// of control lag, so the round 80 ms after its registration retires it
// and its agent holds nothing. ID 1 is then registered again with the
// same flow, which its agent is ordered from zero bytes and retires
// 80 ms later, as the first time: a retired CoFlow's storage backs the
// newcomer (coflow.Spares), and nothing of the first run carries over.
func TestReregisteredIDStartsAfresh(t *testing.T) {
	delta := 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 2, AdmissionConfig{})
	spec := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 8 * coflow.MB}}}
	for run := 0; run < 2; run++ {
		if err := coord.Register(spec, *now); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		boundary(coord, agents, now, delta)
		if f := heldFlows(agents[0]); len(f) != 1 || f[0].sent != 0 || f[0].size != float64(spec.Flows[0].Size) {
			t.Fatalf("run %d: agent after the first order: %s, want c1/0 at 0 of 8 MiB", run, agentFlows(f))
		}
		driveToCompletion(t, coord, agents, now, delta, 100)
		if n := agents[0].FlowCount(); n != 0 {
			t.Fatalf("run %d: agent holds %s after the retirement, want nothing", run, agentFlows(heldFlows(agents[0])))
		}
	}
	res := coord.Results()
	if len(res) != 2 {
		t.Fatalf("results = %+v, want coflow 1 twice", res)
	}
	for i, r := range res {
		if r.ID != 1 || r.CCT != 80*coflow.Millisecond {
			t.Fatalf("result %d = %+v, want coflow 1 at a CCT of 80ms", i, r)
		}
	}
}

// TestReplacedAgentMergesNothing: an attached agent cannot be replaced,
// so the attempt changes nothing. One 20 MB flow runs 0→1 for three
// 8 ms boundaries (2 MB sent); AttachInproc(0) then returns an error
// and attaches no agent, the attached agent's reports go on merging,
// and the round at 176 ms retires the flow, as if the attempt had never
// been made. Before AttachInproc refused an attached port, a
// replacement resent the flow from zero and the round at 232 ms
// retired it.
func TestReplacedAgentMergesNothing(t *testing.T) {
	delta := 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 2, AdmissionConfig{})
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 20 * coflow.MB}}}, *now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		boundary(coord, agents, now, delta)
	}
	if replacement, err := coord.AttachInproc(0); err == nil || replacement != nil {
		t.Fatalf("AttachInproc(0) over the attached agent = %v, %v; want an error", replacement, err)
	}
	if coord.agents[0] != agents[0] || coord.agents[1] != agents[1] {
		t.Fatal("the refused attach changed the attached agents")
	}
	boundary(coord, agents, now, delta)
	if n := agents[0].FlowCount(); n != 1 {
		t.Fatalf("the attached agent holds %s after its report, want the flow", agentFlows(heldFlows(agents[0])))
	}
	if f := coord.live[1].Flows[0]; f.Sent() <= 2_000_000 {
		t.Fatalf("the flow has %d bytes sent after the attached agent's report, want more than the 2 MB of before", f.Sent())
	}
	driveToCompletion(t, coord, agents, now, delta, 100)
	if res := coord.Results(); len(res) != 1 || res[0].CCT != 176*coflow.Millisecond {
		t.Fatalf("results = %+v, want coflow 1 at a CCT of 176ms", res)
	}
}

// TestInprocScaleTenThousand: 10^4 in-process agents, one coordinator,
// one process — the Table-2 scale point — completes a small workload
// promptly in virtual time.
func TestInprocScaleTenThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("10^4-agent scale test skipped in -short mode")
	}
	const ports = 10000
	delta := 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", ports, AdmissionConfig{})
	for id := 1; id <= 50; id++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(id), Flows: []coflow.FlowSpec{
			{Src: coflow.PortID((id * 13) % ports), Dst: coflow.PortID((id*29 + 1) % ports), Size: 8 * coflow.MB},
		}}
		if err := coord.Register(spec, *now); err != nil {
			t.Fatal(err)
		}
	}
	driveToCompletion(t, coord, agents, now, delta, 2000)
	if n := len(coord.Results()); n != 50 {
		t.Fatalf("completed %d/50", n)
	}
	calls, mean, _, _ := coord.ScheduleLatency()
	if calls == 0 || mean <= 0 {
		t.Fatalf("schedule latency not measured: calls=%d mean=%v", calls, mean)
	}
}

// TestPhasesScheduleTotalExact: Phases().Schedule is the latency
// recorder's own running total — not mean × calls, which drops up to
// one nanosecond per call — so it divides back to exactly the reported
// mean and can never fall below the slowest single call. Every other
// phase of a boundary that did work has time against it too.
func TestPhasesScheduleTotalExact(t *testing.T) {
	delta := 8 * coflow.Millisecond
	coord, agents, now := inprocCluster(t, "saath", 6, AdmissionConfig{})
	for id := 1; id <= 7; id++ {
		spec := &coflow.Spec{ID: coflow.CoFlowID(id), Flows: []coflow.FlowSpec{
			{Src: coflow.PortID(id % 6), Dst: coflow.PortID((id + 1) % 6), Size: coflow.Bytes(id) * coflow.MB},
			{Src: coflow.PortID((id + 2) % 6), Dst: coflow.PortID((id + 4) % 6), Size: coflow.Bytes(8-id) * coflow.MB},
		}}
		if err := coord.Register(spec, *now); err != nil {
			t.Fatal(err)
		}
	}
	driveToCompletion(t, coord, agents, now, delta, 10000)

	calls, mean, max, _ := coord.ScheduleLatency()
	ph := coord.Phases()
	if calls < 7 {
		t.Fatalf("only %d Schedule calls recorded", calls)
	}
	if ph.Schedule < max {
		t.Errorf("schedule total %v is below the slowest call %v", ph.Schedule, max)
	}
	if got := ph.Schedule / time.Duration(calls); got != mean {
		t.Errorf("schedule total %v / %d calls = %v, want the reported mean %v", ph.Schedule, calls, got, mean)
	}
	if ph.Merge <= 0 || ph.Retire <= 0 || ph.Encode <= 0 || ph.Deliver <= 0 {
		t.Errorf("a phase saw no time: %+v", ph)
	}
}
