package runtime

import (
	"fmt"
	"time"
)

// InprocAgent is a simulated agent living inside the coordinator's
// process: no sockets, no goroutines, no data plane — just the flow
// progress a real agent would accumulate, advanced in virtual time by
// the testbed driver. 10^5 of them fit in one process, which is what
// lets catalog studies measure the real coordinator at cluster scale.
//
// The driver contract is single-threaded per coordinator: the driver
// interleaves Step and Report/ReportInproc calls with the coordinator's
// StepSchedule (which synchronously delivers orders back into the
// agent). Deliver and the reports run under the coordinator's roundMu,
// which also guards the slot table the agents share; Step touches only
// the agent's own flows.
type InprocAgent struct {
	port  int
	coord *Coordinator
	// flows is dense: Step and Report walk it front to back, a completed
	// flow is swap-removed. slots finds a flow by the coordinator's dense
	// flow index, which every order carries; it is touched only when
	// orders arrive and when a flow completes.
	flows []inprocFlow
	slots *slotTable
	id    int32 // this agent's owner tag in slots
}

// inprocFlow is one flow's sender-side state.
type inprocFlow struct {
	key  flowKey
	slot int32   // the coordinator's Flow.Idx it is filed under in the slot table
	size float64 // total bytes
	sent float64 // bytes moved so far (float: rate × δ accumulation)
	rate float64 // current schedule's bytes/second
	done bool
}

// slotTable is where a coordinator's in-process agents find a flow by
// the coordinator's dense flow index (FlowOrder.slot): entry s names
// the agent that holds the flow last ordered under index s and the
// flow's position in that agent's flows. One table serves every agent
// of a coordinator, so it grows with the flow indices in use (FlowCap),
// not with ports × agents. An index is reused once its flow leaves the
// coordinator, while the old flow may linger at its agent (a
// deregistered CoFlow's flows run to completion there), so a reader
// checks the flow an entry points at against the order's wire name. The
// table's invariant: an entry s that agent a owns points at a flow of a
// filed under s (inprocFlow.slot). So a flow clears or moves only the
// entry that points at it, never one its index has since passed to
// another flow or agent. Guarded by the coordinator's roundMu.
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

// AttachInproc registers an in-process agent for the given port,
// replacing any previous link. Used with Manual-mode coordinators by
// the testbed (testbed.RunJob).
func (c *Coordinator) AttachInproc(port int) (*InprocAgent, error) {
	if port < 0 || port >= c.cfg.NumPorts {
		return nil, fmt.Errorf("runtime: inproc agent port %d outside [0, %d)", port, c.cfg.NumPorts)
	}
	a := &InprocAgent{port: port, coord: c, slots: &c.slots}
	c.roundMu.Lock()
	a.id = c.slots.join()
	c.roundMu.Unlock()
	c.setAgent(port, a)
	return a, nil
}

// DataAddr implements agentLink; in-process agents have no data plane.
func (a *InprocAgent) DataAddr() string { return "" }

// Shut implements agentLink; nothing to tear down.
func (a *InprocAgent) Shut() {}

// Deliver implements agentLink: adopt the new schedule. Orders are
// copied into per-flow state — the rate, and a new size as the restart
// the coordinator's CarryOver gave a flow update() resized — and the
// message is not retained. An order finds its flow through the slot
// table, checked against the flow's wire name: an entry of another
// agent, or of another flow under a reused index, is a miss.
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (a *InprocAgent) Deliver(msg *scheduleMsg) error {
	if a.slots == nil { // built outside AttachInproc: a table of its own
		a.slots = &slotTable{} //saath:alloc-ok once per agent
		a.id = a.slots.join()
	}
	t := a.slots
	for i := range msg.Orders {
		o := &msg.Orders[i]
		k := flowKey{CoFlow: o.CoFlow, Index: o.Index}
		for int(o.slot) >= len(t.entries) {
			t.entries = append(t.entries, slotEntry{}) //saath:alloc-ok grow path: the table follows FlowCap
		}
		e := &t.entries[o.slot]
		if e.owner != a.id || a.flows[e.at].key != k {
			*e = slotEntry{owner: a.id, at: a.file(k, o)}
		}
		f := &a.flows[e.at]
		if size := float64(o.Size); f.size != size { // resized by update(): restarted, as CarryOver does
			f.size, f.sent, f.done = size, 0, false
		}
		f.rate = o.RateBps
	}
	return nil
}

// file returns where the flow named k sits in flows, now filed under
// o's index: a miss in the slot table. The agent holds one flow per wire
// name, as a map by name would: a flow it already holds — its index
// since given to another flow, or the flow moved away and back by
// update() while the old one lingered — is found by a walk over the
// agent's flows and re-filed; otherwise the flow is added.
func (a *InprocAgent) file(k flowKey, o *FlowOrder) int32 {
	for j := range a.flows {
		if f := &a.flows[j]; f.key == k {
			if e := &a.slots.entries[f.slot]; e.owner == a.id && int(e.at) == j {
				*e = slotEntry{}
			}
			f.slot = o.slot
			return int32(j)
		}
	}
	a.flows = append(a.flows, inprocFlow{key: k, slot: o.slot, size: float64(o.Size)}) //saath:alloc-ok grow path
	return int32(len(a.flows) - 1)
}

// Step advances every flow by dt at its current scheduled rate — the
// work a real agent's token-bucket sender does in wall time, collapsed
// to arithmetic. Progress is pipelined exactly like the prototype: a
// flow moves bytes at the rate of the previous schedule push.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (a *InprocAgent) Step(dt time.Duration) {
	sec := dt.Seconds()
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

// Report pushes this agent's flow progress into the coordinator: a
// ReportInproc of this one agent.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (a *InprocAgent) Report() {
	if len(a.flows) == 0 {
		return
	}
	one := [1]*InprocAgent{a}
	a.coord.ReportInproc(one[:])
}

// ReportInproc pushes the flow progress of in-process agents attached
// to c into the coordinator, the in-process equivalent of their
// periodic TCP stats messages — without the messages: each flow's stat
// is merged as it is read, agent by agent in the given order, under one
// take of the round and policy locks and one clock read. Completed flows
// are reported once (done=true) and then dropped from agent state —
// delivery is synchronous, so the completion cannot be lost. Unlike the
// TCP path a report does not retire: completions are collected once per
// boundary in StepSchedule, in ID order across all of the boundary's
// reports.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (c *Coordinator) ReportInproc(agents []*InprocAgent) {
	now := c.cfg.Clock.Now()
	c.roundMu.Lock()
	c.polMu.Lock()
	c.mu.Lock()
	if c.mergeSince.IsZero() {
		c.mergeSince = time.Now()
	}
	for _, a := range agents {
		for i := 0; i < len(a.flows); {
			f := &a.flows[i]
			c.mergeStatLocked(&FlowStat{
				CoFlow:    f.key.CoFlow,
				Index:     f.key.Index,
				Sent:      int64(f.sent),
				Done:      f.done,
				Available: true,
			}, now)
			if f.done {
				a.dropFlow(i) // the last flow now sits at i
			} else {
				i++
			}
		}
	}
	c.mu.Unlock()
	c.polMu.Unlock()
	c.roundMu.Unlock()
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
