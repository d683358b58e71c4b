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
// interleaves Step/Report calls with the coordinator's StepSchedule
// (which synchronously delivers orders back into the agent), so no
// internal locking exists.
type InprocAgent struct {
	port  int
	coord *Coordinator
	// flows is dense: Step and Report walk it front to back, a completed
	// flow is swap-removed. index finds a flow by its wire name and is
	// touched only when orders arrive and when a flow completes.
	flows []inprocFlow
	index map[flowKey]int
}

// inprocFlow is one flow's sender-side state.
type inprocFlow struct {
	key  flowKey
	size float64 // total bytes
	sent float64 // bytes moved so far (float: rate × δ accumulation)
	rate float64 // current schedule's bytes/second
	done bool
}

// AttachInproc registers an in-process agent for the given port,
// replacing any previous link. Used with Manual-mode coordinators by
// the testbed (testbed.RunJob).
func (c *Coordinator) AttachInproc(port int) (*InprocAgent, error) {
	if port < 0 || port >= c.cfg.NumPorts {
		return nil, fmt.Errorf("runtime: inproc agent port %d outside [0, %d)", port, c.cfg.NumPorts)
	}
	a := &InprocAgent{port: port, coord: c, index: make(map[flowKey]int)}
	c.setAgent(port, a)
	return a, nil
}

// DataAddr implements agentLink; in-process agents have no data plane.
func (a *InprocAgent) DataAddr() string { return "" }

// Shut implements agentLink; nothing to tear down.
func (a *InprocAgent) Shut() {}

// Deliver implements agentLink: adopt the new schedule. Orders are
// copied into per-flow state; the message is not retained.
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (a *InprocAgent) Deliver(msg *scheduleMsg) error {
	for i := range msg.Orders {
		o := &msg.Orders[i]
		k := flowKey{CoFlow: o.CoFlow, Index: o.Index}
		at, ok := a.index[k] //saath:alloc-ok orders name flows by the wire's (coflow ID, index); this lookup is the agent's one map access per order
		if !ok {
			at = len(a.flows)
			a.index[k] = at                                                      //saath:alloc-ok first order for a flow, once per flow
			a.flows = append(a.flows, inprocFlow{key: k, size: float64(o.Size)}) //saath:alloc-ok grow path
		}
		a.flows[at].rate = o.RateBps
	}
	return nil
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

// Report pushes this agent's flow progress into the coordinator, the
// in-process equivalent of the periodic TCP stats message — without the
// message: each flow's stat is merged as it is read, under the policy
// locks. Completed flows are reported once (done=true) and then dropped
// from agent state — delivery is synchronous, so the completion cannot
// be lost. Unlike the TCP path a report does not retire: completions
// are collected once per boundary in StepSchedule, in ID order across
// all of the boundary's reports.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (a *InprocAgent) Report() {
	if len(a.flows) == 0 {
		return
	}
	c := a.coord
	now := c.cfg.Clock.Now()
	c.polMu.Lock()
	c.mu.Lock()
	if c.mergeSince.IsZero() {
		c.mergeSince = time.Now()
	}
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
	c.mu.Unlock()
	c.polMu.Unlock()
}

// dropFlow swap-removes flows[i].
//
//saath:alloc-ok completion path: once per finished flow, not per boundary
func (a *InprocAgent) dropFlow(i int) {
	last := len(a.flows) - 1
	delete(a.index, a.flows[i].key)
	if i != last {
		a.flows[i] = a.flows[last]
		a.index[a.flows[i].key] = i
	}
	a.flows = a.flows[:last]
}

// FlowCount returns the number of flows the agent currently tracks.
func (a *InprocAgent) FlowCount() int { return len(a.flows) }
