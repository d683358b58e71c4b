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
	port    int
	coord   *Coordinator
	flows   map[flowKey]*inprocFlow
	scratch []FlowStat // reused report buffer: the steady-state step path allocates nothing
}

// inprocFlow is one flow's sender-side state.
type inprocFlow struct {
	size float64 // total bytes
	sent float64 // bytes moved so far (float: rate × δ accumulation)
	rate float64 // current schedule's bytes/second
	done bool
}

// AttachInproc registers an in-process agent for the given port,
// replacing any previous link. Used with Manual-mode coordinators by
// the testbed runner.
func (c *Coordinator) AttachInproc(port int) (*InprocAgent, error) {
	if port < 0 || port >= c.cfg.NumPorts {
		return nil, fmt.Errorf("runtime: inproc agent port %d outside [0, %d)", port, c.cfg.NumPorts)
	}
	a := &InprocAgent{port: port, coord: c, flows: make(map[flowKey]*inprocFlow)}
	c.mu.Lock()
	old := c.agents[port]
	c.agents[port] = a
	c.mu.Unlock()
	if old != nil {
		old.Shut()
	}
	return a, nil
}

// DataAddr implements agentLink; in-process agents have no data plane.
func (a *InprocAgent) DataAddr() string { return "" }

// Shut implements agentLink; nothing to tear down.
func (a *InprocAgent) Shut() {}

// Deliver implements agentLink: adopt the new schedule. Orders are
// copied into per-flow state; the message is not retained.
func (a *InprocAgent) Deliver(msg *scheduleMsg) error {
	for i := range msg.Orders {
		o := &msg.Orders[i]
		k := flowKey{CoFlow: o.CoFlow, Index: o.Index}
		f := a.flows[k]
		if f == nil {
			f = &inprocFlow{size: float64(o.Size)}
			a.flows[k] = f
		}
		f.rate = o.RateBps
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
	if len(a.flows) == 0 {
		return
	}
	sec := dt.Seconds()
	for _, f := range a.flows { //saath:alloc-ok agent flow table is still keyed by (CoFlow, index) (ROADMAP 6a); per-flow updates commute
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
// in-process equivalent of the periodic TCP stats message. Completed
// flows are reported once (done=true) and then dropped from agent
// state — delivery is synchronous, so the completion cannot be lost.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (a *InprocAgent) Report() {
	if len(a.flows) == 0 {
		return
	}
	a.scratch = a.scratch[:0]
	for k, f := range a.flows { //saath:alloc-ok as Step; the coordinator merges stats per flow, in any order
		a.scratch = append(a.scratch, FlowStat{
			CoFlow:    k.CoFlow,
			Index:     k.Index,
			Sent:      int64(f.sent),
			Done:      f.done,
			Available: true,
		})
		if f.done {
			delete(a.flows, k)
		}
	}
	a.coord.reportInproc(a.scratch)
}

// FlowCount returns the number of flows the agent currently tracks.
func (a *InprocAgent) FlowCount() int { return len(a.flows) }

// reportInproc merges an in-process agent report under the policy
// locks, without the per-report retirement scan of the TCP path —
// retirement happens once per boundary in StepSchedule, keeping the
// per-boundary cost O(flows) instead of O(agents × live).
func (c *Coordinator) reportInproc(stats []FlowStat) {
	now := c.cfg.Clock.Now()
	c.polMu.Lock()
	c.mu.Lock()
	c.mergeStatsLocked(stats, now)
	c.mu.Unlock()
	c.polMu.Unlock()
}
