package runtime

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/sched"
)

// mapAgent is the in-process agent as it stood before the shared slot
// table: it keeps its own flows, finds one by its name — (CoFlow,
// index), without the start — in a map of its own, steps them with a
// copy of the slot agent's arithmetic and reports one flow at a time.
// It is the reference FuzzInprocAgents holds InprocAgent (flow state in
// the shared table, the slot lists, the batched ReportInproc) to. It
// records each order's slot, so the slot-keyed mergeStat serves it
// too, and the one rule the shared table imposes on its side's agents
// in holders: the agent last ordered under a slot holds that flow, and
// a flow of another agent's under the slot is no longer held — it is
// not stepped, and its next report drops it.
type mapAgent struct {
	coord   *Coordinator
	flows   []mapFlow
	index   map[flowKey]int
	holders map[int32]holding // shared by a side's agents
}

// mapFlow is a mapAgent's flow and the slot it was ordered under. The
// entry's owner is unused: holders stands in for it.
type mapFlow struct {
	slotEntry
	slot int32
}

// holding is who was last ordered a slot's flow, and which flow.
type holding struct {
	a *mapAgent
	k flowKey
}

func newMapAgent(c *Coordinator, holders map[int32]holding) *mapAgent {
	return &mapAgent{coord: c, index: map[flowKey]int{}, holders: holders}
}

// name is k without its start stamp: what mapAgent files flows under.
func name(k flowKey) flowKey { return flowKey{CoFlow: k.CoFlow, Index: k.Index} }

func (a *mapAgent) holds(f *mapFlow) bool { return a.holders[f.slot] == holding{a, f.key} }

func (a *mapAgent) Deliver(orders []FlowOrder) {
	for i := range orders {
		o := &orders[i]
		k := flowKey{CoFlow: o.CoFlow, Index: o.Index, start: o.start}
		at, ok := a.index[name(k)]
		if !ok {
			at = len(a.flows)
			a.index[name(k)] = at
			a.flows = append(a.flows, mapFlow{slotEntry{key: k, size: float64(o.Size)}, o.slot})
		}
		a.flows[at].rate = o.RateBps
		a.holders[o.slot] = holding{a, a.flows[at].key}
	}
}

func (a *mapAgent) Step(dt coflow.Time) {
	sec := (time.Duration(dt) * time.Microsecond).Seconds()
	for i := range a.flows {
		f := &a.flows[i]
		if !a.holds(f) || f.done || f.rate <= 0 {
			continue
		}
		f.sent += f.rate * sec
		if f.sent >= f.size-1e-6 {
			f.sent = f.size
			f.done = true
		}
	}
}

func (a *mapAgent) Report(now coflow.Time) {
	for i := 0; i < len(a.flows); {
		f := &a.flows[i]
		if a.holds(f) && a.coord.mergeStat(f.slot, &f.slotEntry, now) && !f.done {
			i++
			continue
		}
		if a.holds(f) {
			delete(a.holders, f.slot)
		}
		last := len(a.flows) - 1
		delete(a.index, name(a.flows[i].key))
		if i != last {
			a.flows[i] = a.flows[last]
			a.index[name(a.flows[i].key)] = i
		}
		a.flows = a.flows[:last]
	}
}

// list is a mapAgent's flows in a comparable form, in its own order: a
// flow it holds as agentFlows prints it, one another agent took as "-".
func (a *mapAgent) list() string {
	var b strings.Builder
	for i := range a.flows {
		if f := &a.flows[i]; a.holds(f) {
			b.WriteString(agentFlows([]slotEntry{f.slotEntry}))
		} else {
			b.WriteString("-; ")
		}
	}
	return b.String()
}

// slotList is an InprocAgent's list in mapAgent.list's form.
func slotList(a *InprocAgent) string {
	var b strings.Builder
	for _, s := range a.held {
		if e := a.slots.entries[s]; e.owner == a.id {
			b.WriteString(agentFlows([]slotEntry{e}))
		} else {
			b.WriteString("-; ")
		}
	}
	return b.String()
}

// heldFlows is the state of the flows an InprocAgent holds: the entries
// it lists and still owns, in its list's order.
func heldFlows(a *InprocAgent) []slotEntry {
	var fs []slotEntry
	for _, s := range a.held {
		if e := a.slots.entries[s]; e.owner == a.id {
			fs = append(fs, e)
		}
	}
	return fs
}

// agentFlows is an agent's flow set in a comparable form: (key, size,
// sent, rate, done) per flow, ordered by name.
func agentFlows(flows []slotEntry) string {
	fs := slices.Clone(flows)
	slices.SortFunc(fs, func(a, b slotEntry) int {
		return cmp.Or(cmp.Compare(a.key.CoFlow, b.key.CoFlow), cmp.Compare(a.key.Index, b.key.Index))
	})
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "c%d/%d#%d %.0f/%.0f@%.0f done=%v; ", f.key.CoFlow, f.key.Index, f.key.start, f.sent, f.size, f.rate, f.done)
	}
	return b.String()
}

// FuzzInprocAgents drives one churn script through two coordinators
// in lockstep: one whose agents are InprocAgents — flow state in the
// slot table they share, reported in one ReportInproc per boundary or
// one per agent — and one whose agents are the map-keyed mapAgent,
// which keeps its own flows. The script registers (under a fresh ID, or
// again under one that may have retired while a detached agent's copy
// of its flows lingers), detaches a port's agent (it keeps its flows
// and keeps stepping and reporting) and attaches a fresh one to a port
// whose agent is detached (at an attached port AttachInproc must
// refuse). Ops 1, 2 and 7, which deregistered, updated and resized a
// CoFlow, are retired and do nothing, so every committed input keeps
// its meaning. Flow indices are reused all along, by flows at other
// agents too. After every boundary every agent ever attached must list
// the same flows in the same order — (key, size, sent, rate, done) per
// flow it holds, a mark per flow another agent took — on both sides;
// every owned entry of the slot table must be listed exactly once, by
// its owner, and no agent may list a slot twice, after the reports and
// after the round; the reports must leave every entry an agent still
// lists holding the same flow; every flow the coordinator ordered must
// be held by its sender under its registration and at the size
// ordered; no flow may have more bytes sent at the coordinator than its
// port rate moves in the virtual time since it was registered (a report
// of an earlier registration taken as progress breaks this); and the
// coordinators must agree on Results(). The committed corpus holds the
// cases the owner checks in Step and the report walk exist for — an
// agent detaches, a fresh one is ordered its flow and takes the entry,
// and the old agent goes on stepping and reporting (its name is from
// when the old agent kept a copy of its own and finished the flow) or
// swap-removes another slot over the taken one — an ID registered
// again, and a copy of a flow that a detached agent still runs,
// reported after its CoFlow retired and its ID was registered again
// (the registration stamp drops it). After every operation, no two live
// CoFlows of either coordinator may share a Flow, and every live flow
// must be the one its spec names; the corpus churns completions,
// retirements and registrations for that.
func FuzzInprocAgents(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 5, 0, 0, 0, 2, 3, 2, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{0, 0, 1, 0, 1, 3, 0, 5, 3, 0, 5, 5, 4, 0, 6, 2, 0, 2, 1, 3, 4, 5, 0, 0, 5, 6, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		const (
			nPorts   = 6
			delta    = 8 * coflow.Millisecond
			portRate = coflow.Rate(125e6)
		)
		type side struct {
			coord *Coordinator
			now   coflow.Time
			slots []*InprocAgent // slot side: every agent ever attached, in attach order
			refs  []*mapAgent    // reference side: the same
			cur   []int          // port -> index of its attached agent (-1: none)
		}
		newSide := func() *side {
			s, err := sched.New("saath", sched.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			sd := &side{cur: make([]int, nPorts)}
			sd.coord, err = NewCoordinator(CoordinatorConfig{
				Scheduler: s, NumPorts: nPorts, PortRate: portRate,
			})
			if err != nil {
				t.Fatal(err)
			}
			return sd
		}
		slotSide, refSide := newSide(), newSide()
		holders := map[int32]holding{} // the reference side's
		attach := func(p int) {
			a, err := slotSide.coord.AttachInproc(p)
			if err != nil {
				t.Fatal(err)
			}
			slotSide.cur[p] = len(slotSide.slots)
			slotSide.slots = append(slotSide.slots, a)
			r := newMapAgent(refSide.coord, holders)
			refSide.coord.agents[p] = r
			refSide.cur[p] = len(refSide.refs)
			refSide.refs = append(refSide.refs, r)
		}
		for p := 0; p < nPorts; p++ {
			attach(p)
		}

		pos := 0
		next := func() int {
			if pos >= len(script) {
				return 0
			}
			pos++
			return int(script[pos-1])
		}
		newSpec := func(id int) *coflow.Spec {
			sp := &coflow.Spec{ID: coflow.CoFlowID(id)}
			w := 1 + next()%3
			for i := 0; i < w; i++ {
				src, dst := next()%nPorts, next()%nPorts
				if dst == src {
					dst = (src + 1) % nPorts
				}
				size := (1 + next()%6) * 400_000
				sp.Flows = append(sp.Flows, coflow.FlowSpec{Src: coflow.PortID(src), Dst: coflow.PortID(dst), Size: coflow.Bytes(size)})
			}
			return sp
		}
		// both applies one CoFlow operation to the two coordinators, which
		// must answer alike.
		both := func(what string, op func(*Coordinator) error) error {
			slotErr, refErr := op(slotSide.coord), op(refSide.coord)
			if !errors.Is(slotErr, refErr) {
				t.Fatalf("%s: %v with slot agents, %v with map agents", what, slotErr, refErr)
			}
			return slotErr
		}
		var ids []int // every ID registered, in order
		// registeredAt is when each ID was last registered at the
		// coordinators.
		registeredAt := map[int64]coflow.Time{}
		// filed is what the slot table held after the last round: index ->
		// (agent, wire name) for every entry its owner lists. A report
		// frees only the entries of the slots it drops, so every entry an
		// agent still lists must hold the same flow for it after the next
		// reports.
		type filing struct {
			a *InprocAgent
			k flowKey
		}
		filed := map[int32]filing{}
		// table holds the slot table to its invariant: every owned entry
		// is listed exactly once, by its owner, and no agent lists a slot
		// twice.
		table := func(n int, when string) {
			owners := map[int32]*InprocAgent{}
			for _, a := range slotSide.slots {
				owners[a.id] = a
				listed := map[int32]bool{}
				for _, s := range a.held {
					if listed[s] {
						t.Fatalf("boundary %d, %s: agent %d lists slot %d twice", n, when, a.id, s)
					}
					listed[s] = true
				}
			}
			for s, e := range slotSide.coord.slots.entries {
				if e.owner == 0 {
					continue
				}
				if a := owners[e.owner]; a == nil || !slices.Contains(a.held, int32(s)) {
					t.Fatalf("boundary %d, %s: entry %d of agent %d is not on its list", n, when, s, e.owner)
				}
			}
		}
		boundary := func(n int, batched bool) {
			var live [2]int
			for i, sd := range []*side{slotSide, refSide} {
				sd.now += delta
				if i == 0 {
					for _, a := range sd.slots {
						a.Step(delta)
					}
					if batched {
						sd.coord.ReportInproc(sd.slots, sd.now)
					} else {
						for i := range sd.slots {
							sd.coord.ReportInproc(sd.slots[i:i+1], sd.now)
						}
					}
					table(n, "after the reports")
					for s, fl := range filed {
						if e := sd.coord.slots.entries[s]; slices.Contains(fl.a.held, s) && (e.owner != fl.a.id || e.key != fl.k) {
							t.Fatalf("boundary %d: the reports lost entry %d of c%d/%d at agent %d", n, s, fl.k.CoFlow, fl.k.Index, fl.a.id)
						}
					}
				} else {
					for _, a := range sd.refs {
						a.Step(delta)
					}
					for _, a := range sd.refs {
						a.Report(sd.now)
					}
				}
				live[i] = sd.coord.StepSchedule(sd.now)
			}
			table(n, "after the round")
			clear(filed)
			for _, a := range slotSide.slots {
				for _, s := range a.held {
					if e := slotSide.coord.slots.entries[s]; e.owner == a.id {
						filed[s] = filing{a, e.key}
					}
				}
			}
			if live[0] != live[1] {
				t.Fatalf("boundary %d: %d live with slot agents, %d with map agents", n, live[0], live[1])
			}
			// Against the coordinator, not another agent: every pending
			// flow whose two agents are attached was ordered this
			// boundary, and its sender holds it at the size ordered.
			for _, cf := range slotSide.coord.snap.Active {
				for _, f := range cf.PendingFlows() {
					src, dst := slotSide.cur[f.Src], slotSide.cur[f.Dst]
					if src < 0 || dst < 0 {
						continue
					}
					k, size := flowKey{CoFlow: int64(cf.ID()), Index: int32(f.Index()), start: slotSide.coord.starts[cf.Idx]}, -1.0
					for _, af := range heldFlows(slotSide.slots[src]) {
						if af.key == k {
							size = af.size
						}
					}
					if size != float64(f.Size) {
						t.Fatalf("boundary %d: c%d/%d#%d is %d bytes at the coordinator, %.0f at its agent (-1: not held)", n, k.CoFlow, k.Index, k.start, f.Size, size)
					}
				}
				since := slotSide.now - registeredAt[int64(cf.ID())]
				for _, f := range cf.Flows {
					if max := float64(portRate) * since.Seconds(); float64(f.Sent()) > max+1 {
						t.Fatalf("boundary %d: c%d/%d has %d bytes sent, more than the %.0f its port moves in the %v since it was registered", n, cf.ID(), f.Index(), f.Sent(), max, since)
					}
				}
			}
			for i, a := range slotSide.slots {
				if got, want := slotList(a), refSide.refs[i].list(); got != want {
					t.Fatalf("boundary %d, agent %d:\nslot agent %s\n map agent %s", n, i, got, want)
				}
			}
			if got, want := fmt.Sprint(slotSide.coord.Results()), fmt.Sprint(refSide.coord.Results()); got != want {
				t.Fatalf("boundary %d: results\nslot agents %s\n map agents %s", n, got, want)
			}
		}

		// distinct holds a coordinator's live CoFlows apart: no two share a
		// Flow — flow storage passes from departed CoFlows to registrations
		// — and each live flow is its spec's.
		distinct := func(when string, c *Coordinator) {
			owner := map[*coflow.Flow]coflow.CoFlowID{}
			for id, cf := range c.live {
				if len(cf.Flows) != len(cf.Spec.Flows) {
					t.Fatalf("%s: c%d has %d flows, its spec %d", when, id, len(cf.Flows), len(cf.Spec.Flows))
				}
				for i, f := range cf.Flows {
					if other, ok := owner[f]; ok {
						t.Fatalf("%s: c%d and c%d share flow %v", when, other, id, cf.FlowID(f))
					}
					owner[f] = id
					if fs := cf.Spec.Flows[i]; f.Src != fs.Src || f.Dst != fs.Dst || f.Size != fs.Size || cf.FlowID(f) != (coflow.FlowID{CoFlow: id, Index: i}) {
						t.Fatalf("%s: c%d flow %d is %v %d->%d %d bytes, its spec %d->%d %d", when, id, i, cf.FlowID(f), f.Src, f.Dst, f.Size, fs.Src, fs.Dst, fs.Size)
					}
				}
			}
		}

		n := 0
		for op := 0; pos < len(script); op++ {
			switch next() % 8 {
			case 0: // register, under a fresh ID or again under an earlier one
				id := len(ids) + 1
				if r := next(); r%2 == 1 && len(ids) > 0 {
					id = ids[r/2%len(ids)]
				} else {
					ids = append(ids, id)
				}
				sp := newSpec(id)
				if both(fmt.Sprintf("Register(c%d)", id), func(c *Coordinator) error { return c.Register(sp, slotSide.now) }) == nil {
					registeredAt[int64(id)] = slotSide.now
				}
			case 3: // detach: the agent keeps its flows, stepping and reporting
				p := next() % nPorts
				if i := slotSide.cur[p]; i >= 0 {
					slotSide.coord.dropAgent(p, slotSide.slots[i])
					refSide.coord.dropAgent(p, refSide.refs[i])
					slotSide.cur[p], refSide.cur[p] = -1, -1
				}
			case 4: // attach a fresh agent to a detached port; an attached one refuses
				if p := next() % nPorts; slotSide.cur[p] < 0 {
					attach(p)
				} else if _, err := slotSide.coord.AttachInproc(p); err == nil {
					t.Fatalf("AttachInproc(%d) replaced the attached agent", p)
				}
			case 5:
				boundary(n, true)
				n++
			case 6:
				boundary(n, false)
				n++
			}
			when := fmt.Sprintf("op %d", op)
			distinct(when, slotSide.coord)
			distinct(when, refSide.coord)
		}
		for end := n + 200; n < end; n++ {
			boundary(n, n%2 == 0)
			if len(slotSide.coord.live) == 0 {
				break
			}
		}
	})
}
