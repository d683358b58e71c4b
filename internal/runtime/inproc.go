package runtime

import (
	"fmt"
	"slices"
	"time"

	"saath/internal/coflow"
)

// InprocAgent is a simulated agent living inside the coordinator's
// process: no sockets, no goroutines, no data plane — just the flow
// progress a real agent would accumulate, advanced in virtual time by
// the driver. 10^5 of them fit in one process, which is what lets
// catalog studies measure the real coordinator at cluster scale.
//
// Agents share their coordinator's one owner: the driver interleaves
// Step and ReportInproc calls with the coordinator's StepSchedule,
// which delivers orders back into the agents. An agent's flow state
// lives in the slot table its coordinator's agents share; the agent
// itself lists the slots it filed flows under.
type InprocAgent struct {
	// held lists the slots the agent filed a flow under, in filing order:
	// Step and ReportInproc walk it front to back, and a report
	// swap-removes the slots it drops. An entry another agent has since
	// taken is skipped by Step and dropped by the next report.
	held  []int32
	slots *slotTable
	id    int32 // this agent's owner tag in slots
}

// flowKey names one flow of one registration: its CoFlow's ID and its
// index there, and the stamp of the CoFlow's registration
// (FlowOrder.start).
type flowKey struct {
	CoFlow int64
	Index  int32
	start  uint32
}

// slotTable holds the flows of a coordinator's in-process agents by the
// coordinator's dense flow index (FlowOrder.slot): entry s is the flow
// last ordered under index s and the agent that holds it. One table
// serves every agent of a coordinator, so it grows with the flow
// indices in use (FlowCap), not with ports × agents. An index is
// reused once its flow leaves the coordinator, and an order for it
// takes the entry over, from whichever agent held it: a detached
// agent's copy of a flow is lost to it once its port's new agent is
// ordered the flow, or another flow is ordered under the index. The
// table's invariant: an agent lists every entry it owns exactly once.
type slotTable struct {
	entries []slotEntry
	agents  int32 // owner tags handed out so far; 0 tags no agent
}

// slotEntry is one flow's sender-side state and, in a slotTable, the
// agent that holds it. It is 48 bytes (TestSlotEntryLayout): owner and
// done share the word after the key.
type slotEntry struct {
	key   flowKey
	owner int32 // the holding agent's id; 0: none
	done  bool
	size  float64 // total bytes
	sent  float64 // bytes moved so far (float: rate × δ accumulation)
	rate  float64 // current schedule's bytes/second
}

// join hands out the owner tag of a new agent.
func (t *slotTable) join() int32 {
	t.agents++
	return t.agents
}

// AttachInproc registers an in-process agent for the given port. A
// port holds one agent: attaching to a port whose agent is attached is
// an error, so no agent is ever replaced.
func (c *Coordinator) AttachInproc(port int) (*InprocAgent, error) {
	if port < 0 || port >= c.cfg.NumPorts {
		return nil, fmt.Errorf("runtime: inproc agent port %d outside [0, %d)", port, c.cfg.NumPorts)
	}
	if c.agents[port] != nil {
		return nil, fmt.Errorf("runtime: inproc agent port %d already has an agent attached", port)
	}
	a := &InprocAgent{slots: &c.slots, id: c.slots.join()}
	c.agents[port] = a
	return a, nil
}

// Deliver implements agentLink: adopt the new schedule. Each order's
// rate is copied into its flow's state, and the orders are not
// retained. An order finds its flow in the slot table under the
// order's slot, checked against the flow's key: a miss — an entry of no
// agent, of another agent, or of another flow under a reused index —
// files the flow anew there, and the agent lists the slot unless it
// already does. Only the agent attached at a flow's sender is ordered
// it, and a detached agent is never ordered again, so no other agent
// takes the entry of a flow an agent is still ordered. An agent that
// holds flows must be reported before its next orders: a report drops
// every slot whose flow has left the coordinator, so an entry it lost
// is never ordered back to it while its list still names it
// (FuzzInprocAgents holds both against agents that key flows by name).
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (a *InprocAgent) Deliver(orders []FlowOrder) {
	t := a.slots
	for i := range orders {
		o := &orders[i]
		k := flowKey{CoFlow: o.CoFlow, Index: o.Index, start: o.start}
		t.entries = coflow.Grow(t.entries, int(o.slot)+1) // the table follows FlowCap
		e := &t.entries[o.slot]
		if e.owner != a.id {
			if len(a.held) == cap(a.held) {
				// Room for every order left, so a Deliver grows the list
				// at most once.
				a.held = slices.Grow(a.held, len(orders)-i)
			}
			a.held = append(a.held, o.slot)
		} else if e.key == k {
			e.rate = o.RateBps
			continue
		}
		*e = slotEntry{key: k, owner: a.id, size: float64(o.Size), rate: o.RateBps}
	}
}

// Step advances every flow by dt of virtual time at its current
// scheduled rate — the work a real agent's rate-limited sender does,
// collapsed to arithmetic. Progress is pipelined: a flow moves bytes at
// the rate of the previous schedule push. A slot whose entry another
// agent has taken is skipped; the next report drops it.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (a *InprocAgent) Step(dt coflow.Time) {
	// Duration.Seconds, not float64(dt)/1e6: for a dt over a second the
	// two can differ in the last bit, and every pinned result was taken
	// with the former.
	sec := (time.Duration(dt) * time.Microsecond).Seconds()
	t := a.slots
	for _, s := range a.held {
		e := &t.entries[s]
		if e.owner != a.id || e.done || e.rate <= 0 {
			continue
		}
		e.sent += e.rate * sec
		// Sub-byte float residue must not strand a finished flow.
		if e.sent >= e.size-1e-6 {
			e.sent = e.size
			e.done = true
		}
	}
}

// ReportInproc pushes the flow progress of in-process agents attached
// to c into the coordinator at virtual time now, an agent's periodic
// statistics report: each flow is merged as it is read, agent by agent
// in the given order. Completed flows are reported once and then
// dropped from agent state — delivery is synchronous, so the completion
// cannot be lost — and so is a flow whose report matches no live flow (a
// copy that outlived its CoFlow at a detached agent): no later order
// names it, and a flow paused at rate 0 would otherwise stay for ever.
// A slot whose entry another agent has taken is dropped unreported. A
// report does not retire: completions are collected once per boundary
// in StepSchedule, in ID order across all of the boundary's reports.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (c *Coordinator) ReportInproc(agents []*InprocAgent, now coflow.Time) {
	if c.mergeSince.IsZero() {
		c.mergeSince = time.Now()
	}
	t := &c.slots
	for _, a := range agents {
		for i := 0; i < len(a.held); {
			s := a.held[i]
			e := &t.entries[s]
			if e.owner != a.id || !c.mergeStat(s, e, now) || e.done {
				a.drop(i) // the last slot now sits at i
			} else {
				i++
			}
		}
	}
}

// drop swap-removes held[i], and frees its entry if the agent still
// owns it.
func (a *InprocAgent) drop(i int) {
	if e := &a.slots.entries[a.held[i]]; e.owner == a.id {
		e.owner = 0
	}
	last := len(a.held) - 1
	a.held[i] = a.held[last]
	a.held = a.held[:last]
}

// FlowCount returns the number of flows the agent currently tracks.
func (a *InprocAgent) FlowCount() int { return len(a.held) }
