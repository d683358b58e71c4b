package runtime

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/sched"
	_ "saath/internal/sched/aalo" // registers "aalo"
)

// recLink is an agentLink that records every schedule pushed to its
// port before handing it to the in-process agent behind it.
type recLink struct {
	port  int
	inner *InprocAgent
	round *[]string // the current round's deliveries, in delivery order
}

func (l *recLink) Deliver(orders []FlowOrder) {
	var b strings.Builder
	fmt.Fprintf(&b, "p%d[", l.port)
	for i, o := range orders {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "c%d/%d>%d:%d@%.0f", o.CoFlow, o.Index, o.DstPort, o.Size, o.RateBps)
	}
	b.WriteByte(']')
	*l.round = append(*l.round, b.String())
	l.inner.Deliver(orders)
}

// dropAgent detaches link from port, as an agent that leaves does,
// unless a newer link already replaced it.
func (c *Coordinator) dropAgent(port int, link agentLink) {
	if c.agents[port] == link {
		c.agents[port] = nil
	}
}

// recSched records the policy's view of the live set's lifecycle.
// Depart is called right before IndexSpace.Release on the same CoFlow,
// and Arrive right after Assign, so the log pins the retire / release
// order and the dense indices it leads to.
type recSched struct {
	sched.Scheduler
	log *[]string
}

func (s recSched) Arrive(c *coflow.CoFlow, now coflow.Time) {
	*s.log = append(*s.log, fmt.Sprintf("arrive c%d idx%d f%d", c.ID(), c.Idx, c.Flows[0].Idx))
	s.Scheduler.Arrive(c, now)
}

func (s recSched) Depart(c *coflow.CoFlow, now coflow.Time) {
	*s.log = append(*s.log, fmt.Sprintf("depart c%d idx%d", c.ID(), c.Idx))
	s.Scheduler.Depart(c, now)
}

// TestCoordinatorChurnPinned drives one coordinator through every way
// its live set and agent table can change — an agent detaching and
// re-attaching mid-run, a receiver that is not attached, a duplicate
// Register, a MaxLive rejection, retirements — and pins what came out:
// Results(), the admission counters, the Arrive/Depart (= index
// Assign/Release) sequence, and per round the set of (port, orders)
// delivered. The script was first recorded from the map-based
// coordinator at 9c79de2, where delivery order within a round followed
// map iteration and only the set could be compared. It lost its
// Deregister and Update steps with those operations (their boundaries
// stay, quiet), and every expected value below was recorded again by
// running this script against the coordinator that still had them
// (2e4aa56): the deletion moved nothing that remains. The dense
// coordinator delivers first-touched port first — walk the live coflows
// in (arrival, ID) order and their pending flows by index; a port is
// touched when its first order is written — so wantChurnPortOrder
// additionally pins the sequence.
func TestCoordinatorChurnPinned(t *testing.T) {
	const (
		nPorts = 6
		delta  = 8 * coflow.Millisecond
		mb     = 1_000_000 // one δ of a 1 Gbps port
	)
	var lifecycle, round []string
	pol, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var now coflow.Time
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: recSched{pol, &lifecycle}, NumPorts: nPorts, PortRate: coflow.Rate(125e6),
		Admission: AdmissionConfig{MaxLive: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	links := make([]*recLink, nPorts)
	attach := func(port int) {
		a, err := coord.AttachInproc(port)
		if err != nil {
			t.Fatal(err)
		}
		links[port] = &recLink{port: port, inner: a, round: &round}
		coord.agents[port] = links[port]
	}
	for p := 0; p < nPorts-1; p++ { // port 5 connects late
		attach(p)
	}

	spec := func(id int, flows ...coflow.FlowSpec) *coflow.Spec {
		return &coflow.Spec{ID: coflow.CoFlowID(id), Flows: flows}
	}
	fl := func(src, dst, size int) coflow.FlowSpec {
		return coflow.FlowSpec{Src: coflow.PortID(src), Dst: coflow.PortID(dst), Size: coflow.Bytes(size)}
	}
	register := func(want error, sp *coflow.Spec) func() {
		return func() {
			if err := coord.Register(sp, now); !errors.Is(err, want) {
				t.Fatalf("Register(c%d) = %v, want %v", sp.ID, err, want)
			}
		}
	}

	// One entry per δ boundary: ops run after the agents stepped and
	// reported, before the schedule round (where RunJob registers).
	steps := [][]func(){
		// 20 and 12 finish in the same boundary and port 1 reports before
		// port 4, so the retirement pass sees 20 first and must still
		// retire (and release the indices of) 12 first.
		{ // register three
			register(nil, spec(1, fl(0, 1, 6*mb), fl(2, 3, 3*mb))),
			register(nil, spec(20, fl(1, 2, 2*mb))),
			register(nil, spec(12, fl(4, 0, 2*mb))),
		},
		{ // duplicate; receiver 5 not connected
			register(ErrDuplicate, spec(1, fl(0, 1, mb))),
			register(nil, spec(3, fl(0, 5, 2*mb), fl(3, 4, 4*mb))),
		},
		{func() { coord.dropAgent(2, links[2]); links[2] = nil }}, // port 2 detaches
		{func() { attach(2) }}, // and comes back as a fresh agent
		{ // fill to MaxLive, then one too many
			register(nil, spec(4, fl(4, 0, 5*mb))),
			register(nil, spec(5, fl(1, 3, 3*mb))),
			register(ErrAdmission, spec(6, fl(2, 0, mb))),
		},
		{}, {}, {}, // three quiet boundaries
		{ // attach port 5; register 7
			func() { attach(5) },
			register(nil, spec(7, fl(5, 0, 2*mb), fl(0, 2, mb))),
		},
	}

	var gotRounds, gotPortOrder []string
	for n := 0; ; n++ {
		if n > 60 {
			t.Fatalf("still live after %d boundaries", n)
		}
		now += delta
		for _, l := range links {
			if l != nil {
				l.inner.Step(delta)
			}
		}
		for _, l := range links {
			if l != nil {
				coord.ReportInproc([]*InprocAgent{l.inner}, now)
			}
		}
		if n < len(steps) {
			for _, op := range steps[n] {
				op()
			}
		}
		round = round[:0]
		live := coord.StepSchedule(now)
		var ports []string
		for _, d := range round {
			ports = append(ports, d[1:strings.IndexByte(d, '[')])
		}
		gotPortOrder = append(gotPortOrder, strings.Join(ports, " "))
		sort.Strings(round)
		gotRounds = append(gotRounds, fmt.Sprintf("r%d live%d %s", n, live, strings.Join(round, " ")))
		if live == 0 && n >= len(steps) {
			break
		}
	}

	diff := func(what string, got, want []string) {
		t.Helper()
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("%s[%d]:\n got %q\nwant %q", what, i, g, w)
			}
		}
	}
	diff("rounds", gotRounds, wantChurnRounds)
	diff("lifecycle", lifecycle, wantChurnLifecycle)
	diff("port order", gotPortOrder, wantChurnPortOrder)

	var gotResults []string
	for _, r := range coord.Results() {
		gotResults = append(gotResults, fmt.Sprintf("c%d reg%v cct%v w%d b%d",
			r.ID, time.Duration(r.RegisteredAt)*time.Microsecond, time.Duration(r.CCT)*time.Microsecond, r.Width, r.Bytes))
	}
	diff("results", gotResults, wantChurnResults)
	if admitted, rejected := coord.AdmissionStats(); admitted != 7 || rejected != 1 {
		t.Errorf("AdmissionStats = (%d, %d), want (7, 1)", admitted, rejected)
	}
	for p, a := range coord.agents {
		if a == nil {
			t.Errorf("port %d has no agent attached", p)
		}
	}
	if t.Failed() {
		t.Logf("recorded:\nrounds:\n%q\nlifecycle:\n%q\nport order:\n%q\nresults:\n%q",
			gotRounds, lifecycle, gotPortOrder, gotResults)
	}
}

var wantChurnRounds = []string{
	"r0 live3 p0[c1/0>1:6000000@125000000] p1[c20/0>2:2000000@125000000] p2[c1/1>3:3000000@125000000] p4[c12/0>0:2000000@125000000]",
	"r1 live4 p0[c1/0>1:6000000@125000000] p1[c20/0>2:2000000@125000000] p2[c1/1>3:3000000@125000000] p3[c3/1>4:4000000@125000000] p4[c12/0>0:2000000@125000000]",
	"r2 live2 p0[c1/0>1:6000000@125000000] p3[c3/1>4:4000000@125000000]",
	"r3 live2 p0[c1/0>1:6000000@125000000] p2[c1/1>3:3000000@125000000] p3[c3/1>4:4000000@125000000]",
	"r4 live4 p0[c1/0>1:6000000@0] p1[c5/0>3:3000000@125000000] p2[c1/1>3:3000000@0] p3[c3/1>4:4000000@125000000] p4[c4/0>0:5000000@125000000]",
	"r5 live4 p0[c1/0>1:6000000@0] p1[c5/0>3:3000000@125000000] p2[c1/1>3:3000000@0] p4[c4/0>0:5000000@125000000]",
	"r6 live4 p0[c1/0>1:6000000@0] p1[c5/0>3:3000000@125000000] p2[c1/1>3:3000000@0] p4[c4/0>0:5000000@125000000]",
	"r7 live3 p0[c1/0>1:6000000@125000000] p2[c1/1>3:3000000@125000000] p4[c4/0>0:5000000@125000000]",
	"r8 live4 p0[c1/0>1:6000000@7812500 c3/0>5:2000000@7812500 c7/1>2:1000000@109375000] p2[c1/1>3:3000000@7812500] p4[c4/0>0:5000000@125000000] p5[c7/0>0:2000000@0]",
	"r9 live3 p0[c1/0>1:6000000@15625000 c3/0>5:2000000@15625000 c7/1>2:1000000@93750000] p2[c1/1>3:3000000@15625000] p5[c7/0>0:2000000@93750000]",
	"r10 live3 p0[c1/0>1:6000000@31250000 c3/0>5:2000000@31250000] p2[c1/1>3:3000000@31250000] p5[c7/0>0:2000000@125000000]",
	"r11 live3 p0[c1/0>1:6000000@62500000 c3/0>5:2000000@62500000] p2[c1/1>3:3000000@62500000] p5[c7/0>0:2000000@125000000]",
	"r12 live2 p0[c1/0>1:6000000@0 c3/0>5:2000000@125000000] p2[c1/1>3:3000000@125000000]",
	"r13 live2 p0[c1/0>1:6000000@125000000 c3/0>5:2000000@0]",
	"r14 live1 p0[c3/0>5:2000000@125000000]",
	"r15 live0 ",
}

var wantChurnLifecycle = []string{
	"arrive c1 idx0 f0",
	"arrive c20 idx1 f2",
	"arrive c12 idx2 f3",
	"arrive c3 idx3 f4",
	"depart c12 idx2",
	"depart c20 idx1",
	"arrive c4 idx1 f2",
	"arrive c5 idx2 f3",
	"depart c5 idx2",
	"arrive c7 idx2 f3",
	"depart c4 idx1",
	"depart c7 idx2",
	"depart c1 idx0",
	"depart c3 idx3",
}

var wantChurnResults = []string{
	"c1 reg8ms cct112ms w2 b9000000",
	"c3 reg16ms cct112ms w2 b6000000",
	"c4 reg40ms cct40ms w1 b5000000",
	"c5 reg40ms cct24ms w1 b3000000",
	"c7 reg72ms cct32ms w2 b3000000",
	"c12 reg8ms cct16ms w1 b2000000",
	"c20 reg8ms cct16ms w1 b2000000",
}

// wantChurnPortOrder is the delivery sequence of each round, new with
// the dense coordinator (see the test's comment).
var wantChurnPortOrder = []string{
	"0 2 4 1",
	"0 2 4 1 3",
	"0 3",
	"0 2 3",
	"0 2 3 4 1",
	"0 2 4 1",
	"0 2 4 1",
	"0 2 4",
	"0 2 4 5",
	"0 2 5",
	"0 2 5",
	"0 2 5",
	"0 2",
	"0",
	"0",
	"",
}

// forgetfulSched moves every stamp the policy could hold something under
// before each Schedule — the listed CoFlows' progress stamps, the
// vector's content stamp — so the policy derives every queue and the
// whole schedule afresh. held counts the calls that came back without a
// write to the vector: the previous decision reissued.
type forgetfulSched struct {
	sched.Scheduler
	forget bool
	held   *int
}

func (s forgetfulSched) Schedule(snap *sched.Snapshot) *sched.RateVec {
	if s.forget {
		for _, c := range snap.Active {
			if p := c.PendingFlows(); len(p) > 0 {
				c.Progress(p[0], p[0].Sent()) // restated: the progress stamp moves
			}
		}
		if snap.Alloc != nil {
			snap.Alloc.Reset(snap.FlowCap)
		}
	}
	before := snap.Alloc.ContentStamp()
	alloc := s.Scheduler.Schedule(snap)
	if snap.Alloc != nil && alloc.ContentStamp() == before {
		*s.held++
	}
	return alloc
}

// TestCoordinatorHeldScheduleMatchesFull runs two coordinators through
// the same job in lockstep, one under a policy that keeps its previous
// decision over the boundaries that change nothing, one under the same
// policy made to forget before every call. The job has what moves a
// coordinator's schedule — registrations over time, agents reporting
// bytes that carry coflows over queue thresholds, a sender stalling into
// a straggler cap, completions — and every boundary's orders must match
// to the end.
func TestCoordinatorHeldScheduleMatchesFull(t *testing.T) {
	const (
		delta = 8 * coflow.Millisecond
		mb    = 1_000_000
	)
	specs := []*coflow.Spec{
		{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 40 * mb}, {Src: 2, Dst: 3, Size: 25 * mb}}},
		{ID: 2, Flows: []coflow.FlowSpec{{Src: 0, Dst: 3, Size: 10 * mb}}},
		{ID: 3, Flows: []coflow.FlowSpec{{Src: 4, Dst: 5, Size: 30 * mb}, {Src: 0, Dst: 5, Size: 5 * mb}}},
		{ID: 4, Flows: []coflow.FlowSpec{{Src: 2, Dst: 1, Size: 60 * mb}}},
		{ID: 5, Flows: []coflow.FlowSpec{{Src: 4, Dst: 3, Size: 15 * mb}, {Src: 5, Dst: 0, Size: 15 * mb}}},
	}
	registerAt := map[int]int{0: 0, 1: 0, 2: 6, 3: 6, 4: 30} // spec index -> boundary
	for _, policy := range []string{"saath", "aalo"} {
		t.Run(policy, func(t *testing.T) {
			type side struct {
				coord *Coordinator
				links []*recLink
				now   coflow.Time
				round []string
				held  int
			}
			var sides [2]*side
			for i := range sides {
				sd := &side{}
				inner, err := sched.New(policy, sched.DefaultParams())
				if err != nil {
					t.Fatal(err)
				}
				sd.coord, err = NewCoordinator(CoordinatorConfig{
					Scheduler: forgetfulSched{Scheduler: inner, forget: i == 1, held: &sd.held},
					NumPorts:  6, PortRate: coflow.Rate(125e6),
				})
				if err != nil {
					t.Fatal(err)
				}
				for p := 0; p < 6; p++ {
					a, err := sd.coord.AttachInproc(p)
					if err != nil {
						t.Fatal(err)
					}
					l := &recLink{port: p, inner: a, round: &sd.round}
					sd.links = append(sd.links, l)
					sd.coord.agents[p] = l
				}
				sides[i] = sd
			}
			for n := 0; ; n++ {
				if n > 400 {
					t.Fatal("still live after 400 boundaries")
				}
				live := 0
				for _, sd := range sides {
					for i, sp := range specs {
						if registerAt[i] == n {
							if err := sd.coord.Register(sp, sd.now); err != nil {
								t.Fatal(err)
							}
						}
					}
					sd.now += delta
					for p, l := range sd.links {
						if stalled := p == 2 && n >= 14 && n < 20; !stalled {
							l.inner.Step(delta)
						}
					}
					for _, l := range sd.links {
						sd.coord.ReportInproc([]*InprocAgent{l.inner}, sd.now)
					}
					sd.round = sd.round[:0]
					live = sd.coord.StepSchedule(sd.now)
				}
				if got, want := strings.Join(sides[0].round, " "), strings.Join(sides[1].round, " "); got != want {
					t.Fatalf("boundary %d: orders\n%s\nwith nothing held\n%s", n, got, want)
				}
				if live == 0 && n > 30 {
					if sides[1].held != 0 {
						t.Errorf("the forgetful side reissued %d decisions", sides[1].held)
					}
					if sides[0].held*4 < n {
						t.Errorf("%d of %d boundaries reissued the previous decision: the run hardly reached the held path", sides[0].held, n)
					}
					break
				}
			}
			got, want := sides[0].coord.Results(), sides[1].coord.Results()
			if len(got) != len(specs) || len(want) != len(specs) {
				t.Fatalf("%d and %d results, want %d each", len(got), len(want), len(specs))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].CCT != want[i].CCT {
					t.Fatalf("result %d: %+v, with nothing held %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// panicOnce is a policy with a bug that fires on one Schedule call.
type panicOnce struct {
	sched.Scheduler
	armed *bool
}

func (p panicOnce) Schedule(snap *sched.Snapshot) *sched.RateVec {
	if *p.armed {
		*p.armed = false
		panic("policy bug")
	}
	return p.Scheduler.Schedule(snap)
}

// TestPolicyPanicCostsOneRound: a policy panic inside a schedule round
// reaches the round's caller and leaves the coordinator usable — the
// next registration, report and round go on as usual, and the job
// completes.
func TestPolicyPanicCostsOneRound(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	inner, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	armed := false
	var now coflow.Time
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: panicOnce{inner, &armed}, NumPorts: 4, PortRate: coflow.Rate(125e6),
	})
	if err != nil {
		t.Fatal(err)
	}
	var agents []*InprocAgent
	for p := 0; p < 4; p++ {
		a, err := coord.AttachInproc(p)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 3_000_000}}}, now); err != nil {
		t.Fatal(err)
	}
	coord.StepSchedule(now)

	armed = true
	func() {
		defer func() {
			if r := recover(); r != "policy bug" {
				t.Fatalf("the round recovered %v, want the policy's panic", r)
			}
		}()
		now += delta
		coord.StepSchedule(now)
	}()

	if err := coord.Register(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Src: 2, Dst: 3, Size: 3_000_000}}}, now); err != nil {
		t.Fatal(err)
	}
	driveToCompletion(t, coord, agents, &now, delta, 50)
	if n := len(coord.Results()); n != 2 {
		t.Fatalf("%d coflows completed, want 2", n)
	}
}

// departPanicsOnce is a policy whose Depart has a bug that fires once.
type departPanicsOnce struct {
	sched.Scheduler
	armed *bool
}

func (p departPanicsOnce) Depart(c *coflow.CoFlow, now coflow.Time) {
	if *p.armed {
		*p.armed = false
		panic("depart bug")
	}
	p.Scheduler.Depart(c, now)
}

// TestDepartPanicRetiresTheCoFlow: a policy panic in Depart, which a
// round calls while retiring, reaches the round's caller with the
// CoFlow retired all the same — its result recorded, out of the live
// set — and the next registration and round go on as usual: the next
// CoFlow is scheduled to completion beside nothing else.
func TestDepartPanicRetiresTheCoFlow(t *testing.T) {
	const delta = 8 * coflow.Millisecond
	inner, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	armed := true
	var now coflow.Time
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: departPanicsOnce{inner, &armed}, NumPorts: 2, PortRate: coflow.Rate(125e6),
	})
	if err != nil {
		t.Fatal(err)
	}
	var agents []*InprocAgent
	for p := 0; p < 2; p++ {
		a, err := coord.AttachInproc(p)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	if err := coord.Register(&coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 100_000}}}, now); err != nil {
		t.Fatal(err)
	}
	panicked := false
	for step := 0; step < 50 && !panicked; step++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if r != "depart bug" {
						t.Fatalf("the round recovered %v, want the policy's panic", r)
					}
					panicked = true
				}
			}()
			boundary(coord, agents, &now, delta)
		}()
	}
	if !panicked {
		t.Fatal("the coflow never retired, so Depart never ran")
	}
	if n, res := len(coord.live), coord.Results(); n != 0 || len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("after the panicking Depart: %d live, results %+v; want 0 live and coflow 1's result", n, res)
	}
	if err := coord.Register(&coflow.Spec{ID: 2, Flows: []coflow.FlowSpec{{Src: 1, Dst: 0, Size: 100_000}}}, now); err != nil {
		t.Fatal(err)
	}
	if live := coord.StepSchedule(now); live != 1 {
		t.Fatalf("the round after the panic saw %d live coflows, want 1 (coflow 2 alone)", live)
	}
	for step := 0; step < 50 && len(coord.Results()) < 2; step++ {
		boundary(coord, agents, &now, delta)
	}
	if res := coord.Results(); len(res) != 2 || res[1].ID != 2 {
		t.Fatalf("results %+v: coflow 2 was not scheduled to completion after the panic", res)
	}
}
