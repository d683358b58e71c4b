package runtime

import (
	"fmt"
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
// which delivers orders back into the agents. Step touches only the
// agent's own flows; Deliver and the reports also touch the slot table
// the coordinator's agents share.
type InprocAgent struct {
	// flows is dense: Step and ReportInproc walk it front to back, a completed
	// flow is swap-removed. slots finds a flow by the coordinator's dense
	// flow index, which every order carries; it is touched only when
	// orders arrive and when a flow completes.
	flows []inprocFlow
	slots *slotTable
	id    int32 // this agent's owner tag in slots
}

// flowKey names one flow of one registration: its CoFlow's ID and its
// index there, and the stamp of the CoFlow's registration
// (FlowOrder.start).
type flowKey struct {
	CoFlow int64
	Index  int
	start  uint32
}

// inprocFlow is one flow's sender-side state.
type inprocFlow struct {
	key  flowKey
	slot int32   // the coordinator's Flow.Idx it is filed under in the slot table
	done bool    // beside slot, so the flow stays 56 bytes
	size float64 // total bytes
	sent float64 // bytes moved so far (float: rate × δ accumulation)
	rate float64 // current schedule's bytes/second
}

// slotTable is where a coordinator's in-process agents find a flow by
// the coordinator's dense flow index (FlowOrder.slot): entry s names
// the agent that holds the flow last ordered under index s and the
// flow's position in that agent's flows. One table serves every agent
// of a coordinator, so it grows with the flow indices in use (FlowCap),
// not with ports × agents. An index is reused once its flow leaves the
// coordinator, while a copy of the flow may stay at an agent until its
// next report drops it — a detached agent's, whose port's new agent
// took the entry — so a reader checks the flow an entry points at
// against the order's flowKey. The table's invariant: an entry s that
// agent a owns points at a flow of a filed under s (inprocFlow.slot).
// So a flow clears or moves only the entry that points at it, never one
// its index has since passed to another flow or agent.
type slotTable struct {
	entries []slotEntry
	agents  int32 // owner tags handed out so far; 0 tags no agent
}

type slotEntry struct {
	owner int32 // the holding agent's id; 0: none
	at    int32 // the flow's position in the owner's flows
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
// retained. An order finds its flow through the slot table, checked
// against the flow's key: a miss — an entry of no agent, of another
// agent, or of another flow under a reused index — files the flow anew.
// Only the agent attached at a flow's sender is ordered it, and a
// detached agent is never ordered again, so no other agent takes the
// entry of a flow an agent is still ordered: a miss is never a flow
// the agent holds (FuzzInprocAgents holds this against agents that key
// flows by name).
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (a *InprocAgent) Deliver(orders []FlowOrder) {
	t := a.slots
	for i := range orders {
		o := &orders[i]
		k := flowKey{CoFlow: o.CoFlow, Index: o.Index, start: o.start}
		t.entries = coflow.Grow(t.entries, int(o.slot)+1) // the table follows FlowCap
		e := &t.entries[o.slot]
		if e.owner != a.id || a.flows[e.at].key != k {
			a.flows = append(a.flows, inprocFlow{key: k, slot: o.slot, size: float64(o.Size)}) // grow path
			*e = slotEntry{owner: a.id, at: int32(len(a.flows) - 1)}
		}
		a.flows[e.at].rate = o.RateBps
	}
}

// Step advances every flow by dt of virtual time at its current
// scheduled rate — the work a real agent's rate-limited sender does,
// collapsed to arithmetic. Progress is pipelined: a flow moves bytes at
// the rate of the previous schedule push.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (a *InprocAgent) Step(dt coflow.Time) {
	// Duration.Seconds, not float64(dt)/1e6: for a dt over a second the
	// two can differ in the last bit, and every pinned result was taken
	// with the former.
	sec := (time.Duration(dt) * time.Microsecond).Seconds()
	for i := range a.flows {
		f := &a.flows[i]
		if f.done || f.rate <= 0 {
			continue
		}
		f.sent += f.rate * sec
		// Sub-byte float residue must not strand a finished flow.
		if f.sent >= f.size-1e-6 {
			f.sent = f.size
			f.done = true
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
// A report does not retire: completions
// are collected once per boundary in StepSchedule, in ID order across
// all of the boundary's reports.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (c *Coordinator) ReportInproc(agents []*InprocAgent, now coflow.Time) {
	if c.mergeSince.IsZero() {
		c.mergeSince = time.Now()
	}
	for _, a := range agents {
		for i := 0; i < len(a.flows); {
			f := &a.flows[i]
			if !c.mergeStat(f, now) || f.done {
				a.dropFlow(i) // the last flow now sits at i
			} else {
				i++
			}
		}
	}
}

// dropFlow swap-removes flows[i], clearing its slot entry and moving the
// last flow's, each only if it still belongs to that flow.
func (a *InprocAgent) dropFlow(i int) {
	last := len(a.flows) - 1
	t := a.slots
	if e := &t.entries[a.flows[i].slot]; e.owner == a.id && int(e.at) == i {
		*e = slotEntry{}
	}
	if i != last {
		a.flows[i] = a.flows[last]
		if e := &t.entries[a.flows[i].slot]; e.owner == a.id && int(e.at) == last {
			e.at = int32(i)
		}
	}
	a.flows = a.flows[:last]
}

// FlowCount returns the number of flows the agent currently tracks.
func (a *InprocAgent) FlowCount() int { return len(a.flows) }
