package runtime

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/sched"
)

// AdmissionConfig is the coordinator's admission-control front: a
// token-bucket rate limit applied to coflow registrations at arrival
// time, against live coordinator state. The zero value admits
// everything (the prototype's historical behavior).
//
// Admission is an arrival-time decision by design — the lesson from
// batch-dispatch systems is that load-aware decisions made against a
// snapshot (or not at all) admit work the cluster cannot carry. A
// rejected registration returns ErrAdmission (HTTP 429 on the REST
// path); callers decide whether to drop or retry.
type AdmissionConfig struct {
	// RatePerSec is the sustained admission rate in coflows per second;
	// 0 disables rate-based admission.
	RatePerSec float64
	// Burst is the token-bucket depth in coflows (how large an arrival
	// burst is admitted at once); 0 defaults to max(1, RatePerSec).
	Burst int
	// MaxLive caps concurrently live (admitted, not yet completed)
	// coflows; 0 means unlimited. Checked against live coordinator
	// state at the moment of arrival.
	MaxLive int
}

func (a AdmissionConfig) enabled() bool { return a.RatePerSec > 0 || a.MaxLive > 0 }

// CoordinatorConfig configures the global coordinator.
type CoordinatorConfig struct {
	// Scheduler computes each interval's rates (any registered policy).
	Scheduler sched.Scheduler
	// NumPorts is the cluster size; agents identify as ports 0..N-1.
	NumPorts int
	// PortRate is the per-port rate the scheduler may hand out. On a
	// shared localhost testbed this is scaled down from 1 Gbps.
	PortRate coflow.Rate
	// Delta is the schedule recomputation/sync interval (default 20ms
	// on the prototype; the paper uses 8ms on dedicated VMs).
	Delta time.Duration
	// ControlAddr and HTTPAddr are listen addresses (host:port);
	// ":0" picks free ports. Ignored in Manual mode.
	ControlAddr string
	HTTPAddr    string
	// Clock is the coordinator's time source (nil: the wall clock).
	// The testbed injects a VirtualClock so registration and
	// completion times — and thus every study output — are a pure
	// function of the workload.
	Clock Clock
	// Manual disables the network listeners and the background
	// scheduling ticker: no sockets are bound, Serve must not be
	// called, and the driver advances scheduling explicitly with
	// StepSchedule. This is the testbed mode — in-process agents
	// attach with AttachInproc and 10^5 of them fit in one process.
	Manual bool
	// Admission is the arrival-time admission-control front.
	Admission AdmissionConfig
}

func (c CoordinatorConfig) withDefaults() (CoordinatorConfig, error) {
	if c.Scheduler == nil {
		return c, errors.New("runtime: coordinator needs a scheduler")
	}
	if c.NumPorts <= 0 {
		return c, errors.New("runtime: coordinator needs NumPorts > 0")
	}
	if c.PortRate <= 0 {
		c.PortRate = coflow.Rate(12.5e6) // 100 Mbps-equivalent localhost default
	}
	if c.Delta <= 0 {
		c.Delta = 20 * time.Millisecond
	}
	if c.ControlAddr == "" {
		c.ControlAddr = "127.0.0.1:0"
	}
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
	if c.Admission.RatePerSec > 0 && c.Admission.Burst <= 0 {
		c.Admission.Burst = int(c.Admission.RatePerSec)
		if c.Admission.Burst < 1 {
			c.Admission.Burst = 1
		}
	}
	return c, nil
}

// ErrAdmission is returned by Register when the admission-control
// front rejects a coflow (rate limit exceeded or live cap reached).
var ErrAdmission = errors.New("runtime: admission rejected")

// ErrDuplicate is returned by Register for an already-registered ID.
var ErrDuplicate = errors.New("runtime: coflow already registered")

// CoFlowResult is a completed CoFlow as measured by the coordinator.
type CoFlowResult struct {
	ID           coflow.CoFlowID `json:"id"`
	RegisteredAt time.Time       `json:"registeredAt"`
	CompletedAt  time.Time       `json:"completedAt"`
	CCT          time.Duration   `json:"cct"`
	Width        int             `json:"width"`
	Bytes        coflow.Bytes    `json:"bytes"`
}

// liveCoFlow is the coordinator's state for one registered CoFlow.
type liveCoFlow struct {
	spec       *coflow.Spec
	rt         *coflow.CoFlow
	registered time.Time
}

// agentLink is the transport seam between the coordinator and one
// agent: the TCP prototype (agentConn) and the in-process testbed
// agent (InprocAgent) both implement it, so the scheduling core never
// knows which transport it is pushing schedules into.
type agentLink interface {
	// DataAddr is where peers dial to deliver this agent's flow bytes
	// ("" for in-process agents — no data plane exists).
	DataAddr() string
	// Deliver pushes one schedule to the agent. It must not call back
	// into the coordinator and must not retain msg or its orders past
	// the call (the TCP link serializes, the inproc link copies). It runs
	// under roundMu, which is what lets in-process agents share one slot
	// table: each order carries its flow's dense index (FlowOrder.slot).
	Deliver(msg *scheduleMsg) error
	// Shut tears the link down after a delivery failure.
	Shut()
}

// agentConn is one connected TCP agent.
type agentConn struct {
	port     int
	dataAddr string
	conn     net.Conn
	writeMu  sync.Mutex
	// timeout bounds one schedule write; a stalled agent must not
	// wedge the scheduling loop (tests shrink it).
	timeout time.Duration
}

func (a *agentConn) DataAddr() string { return a.dataAddr }

func (a *agentConn) Shut() { a.conn.Close() }

func (a *agentConn) Deliver(msg *scheduleMsg) error {
	a.writeMu.Lock()
	defer a.writeMu.Unlock()
	a.conn.SetWriteDeadline(time.Now().Add(a.timeout))
	defer a.conn.SetWriteDeadline(time.Time{})
	return writeFrame(a.conn, &envelope{Kind: kindSchedule, Schedule: msg})
}

// Coordinator is the global Saath coordinator daemon.
type Coordinator struct {
	cfg      CoordinatorConfig
	ctl      net.Listener
	httpSrv  *http.Server
	httpLn   net.Listener
	stopped  chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// roundMu serializes whole schedule rounds: the order buffers are
	// reused, and a round's deliveries read them outside polMu and mu.
	// Rounds and in-process reports take it, registrations do not, so a
	// stalled delivery holds up the next round, never a registration. It
	// guards orders (port p's buffer), touched (the ports holding orders
	// this round, first touched first), sends, and the slot table the
	// in-process agents find their flows by.
	roundMu sync.Mutex
	orders  [][]FlowOrder
	touched []int
	sends   []pendingSend
	slots   slotTable

	mu sync.Mutex
	// agents is indexed by port (nil: not connected); setAgent/dropAgent
	// are its only writers and keep nAgents its non-nil count.
	agents  []agentLink
	nAgents int
	// live is the ID lookup the wire feeds (stats reports, REST); its
	// writers hold polMu and mu.
	live    map[coflow.CoFlowID]*liveCoFlow
	results []CoFlowResult
	epoch   int64
	// mergeSince is when the first in-process report since the last
	// round came in (zero: none). The round charges the span up to its
	// own start to the merge phase: one clock read per boundary, where
	// one per report would cost more than the merge it times.
	mergeSince time.Time

	// snap is the scheduler's view, kept across rounds with its RateVec;
	// snap.Active is the live set in (arrival, ID) order, maintained on
	// Register / retire / DELETE / PUT and never rebuilt. finishing are
	// the live CoFlows with a flow that finished since the last
	// retirement pass. Both guarded by polMu.
	snap      sched.Snapshot
	finishing []*liveCoFlow

	// space assigns the dense flow/coflow indices the scheduler's
	// allocation vector is keyed by; guarded by polMu (every caller
	// that touches it already holds polMu for the Arrive/Depart call).
	space *coflow.IndexSpace

	// fab is the scheduling fabric, reset each round; guarded by polMu.
	fab *fabric.Fabric

	// polMu serializes every call into the scheduling policy: Arrive
	// (registration), Depart (completion, deregister) and Schedule
	// (ticker or StepSchedule) run on different goroutines, and
	// Scheduler implementations keep unsynchronized per-CoFlow state.
	polMu sync.Mutex

	// adm is the admission token bucket (nil: no rate admission).
	adm       *tokenBucket
	admMu     sync.Mutex
	nAdmitted int64
	nRejected int64

	// schedStats mirrors Table 2: wall-clock cost of Schedule calls,
	// with a bounded P90 reservoir; phases splits the rest of a
	// boundary. This is measurement, not simulation state — it never
	// feeds back into scheduling decisions or results.
	schedMu    sync.Mutex
	schedStats scheduleStats
	phases     PhaseTotals
	// failedRounds counts the ticker's rounds lost to a panic, and
	// lastPanic holds the last one's value and stack (both under
	// schedMu); see scheduleTick.
	failedRounds int64
	lastPanic    string
}

// PhaseTotals is the wall-clock time the coordinator has spent in each
// phase of its δ boundaries since startup: folding agent reports into
// flow state (for in-process agents, the span from a boundary's first
// report to its schedule round), retiring completed CoFlows and
// resetting the fabric, the Schedule calls, grouping the allocation
// into per-agent orders, and pushing them. Out-of-band, like
// ScheduleLatency.
type PhaseTotals struct {
	Merge, Retire, Schedule, Encode, Deliver time.Duration
}

// NewCoordinator validates the config and binds the listeners; call
// Serve to start the control, HTTP and scheduling loops. In Manual
// mode no listeners are bound and no loops exist — the caller attaches
// in-process agents and drives scheduling with StepSchedule.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		stopped: make(chan struct{}),
		agents:  make([]agentLink, cfg.NumPorts),
		live:    make(map[coflow.CoFlowID]*liveCoFlow),
		orders:  make([][]FlowOrder, cfg.NumPorts),
		space:   coflow.NewIndexSpace(),
		fab:     fabric.New(cfg.NumPorts, cfg.PortRate),
	}
	c.snap.Fabric = c.fab
	if cfg.Admission.RatePerSec > 0 {
		c.adm = newAdmissionBucket(cfg.Admission.RatePerSec, float64(cfg.Admission.Burst), cfg.Clock.Now)
	}
	if cfg.Manual {
		return c, nil
	}
	ctl, err := net.Listen("tcp", cfg.ControlAddr)
	if err != nil {
		return nil, fmt.Errorf("runtime: control listen: %w", err)
	}
	httpLn, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		ctl.Close()
		return nil, fmt.Errorf("runtime: http listen: %w", err)
	}
	c.ctl, c.httpLn = ctl, httpLn
	mux := http.NewServeMux()
	mux.HandleFunc("/coflows", c.handleCoFlows)
	mux.HandleFunc("/coflows/", c.handleCoFlowByID)
	mux.HandleFunc("/results", c.handleResults)
	mux.HandleFunc("/status", c.handleStatus)
	c.httpSrv = &http.Server{Handler: mux}
	return c, nil
}

// ControlAddr returns the agents' dial address ("" in Manual mode).
func (c *Coordinator) ControlAddr() string {
	if c.ctl == nil {
		return ""
	}
	return c.ctl.Addr().String()
}

// HTTPAddr returns the REST API base address ("" in Manual mode).
func (c *Coordinator) HTTPAddr() string {
	if c.httpLn == nil {
		return ""
	}
	return c.httpLn.Addr().String()
}

// Serve runs the coordinator until Close. It always returns a non-nil
// error (http.ErrServerClosed on clean shutdown).
func (c *Coordinator) Serve() error {
	if c.cfg.Manual {
		return errors.New("runtime: manual coordinator has no serve loops (drive it with StepSchedule)")
	}
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		c.acceptAgents()
	}()
	go func() {
		defer c.wg.Done()
		c.scheduleLoop()
	}()
	return c.httpSrv.Serve(c.httpLn)
}

// Close stops all loops and closes every connection.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() {
		close(c.stopped)
		if c.ctl != nil {
			c.ctl.Close()
		}
		if c.httpSrv != nil {
			c.httpSrv.Close()
		}
		if c.adm != nil {
			c.adm.Close()
		}
		c.mu.Lock()
		for _, a := range c.agents {
			if a != nil {
				a.Shut()
			}
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	return nil
}

func (c *Coordinator) acceptAgents() {
	for {
		conn, err := c.ctl.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serveAgent(conn)
		}()
	}
}

// serveAgent handles one agent's control connection: a hello frame,
// then a stream of stats reports. When the connection drops — agent
// crash, network partition, stalled writes shed by Deliver — the port
// deregisters on the way out, so the next schedule round sees the
// reduced fabric instead of wedging on a dead link.
func (c *Coordinator) serveAgent(conn net.Conn) {
	defer conn.Close()
	env, err := readFrame(conn)
	if err != nil || env.Kind != kindHello || env.Hello == nil {
		return
	}
	h := env.Hello
	if h.Port < 0 || h.Port >= c.cfg.NumPorts {
		return
	}
	a := &agentConn{port: h.Port, dataAddr: h.DataAddr, conn: conn, timeout: 2 * time.Second}
	c.setAgent(h.Port, a)
	for {
		env, err := readFrame(conn)
		if err != nil {
			break
		}
		if env.Kind == kindStats && env.Stats != nil {
			c.applyStats(env.Stats)
		}
	}
	c.dropAgent(h.Port, a)
}

// setAgent makes link the agent of port (in [0, NumPorts)) and shuts
// the link it replaces.
func (c *Coordinator) setAgent(port int, link agentLink) {
	c.mu.Lock()
	old := c.agents[port]
	c.agents[port] = link
	if old == nil {
		c.nAgents++
	}
	c.mu.Unlock()
	if old != nil {
		old.Shut()
	}
}

// dropAgent detaches link from port unless a newer link already
// replaced it.
func (c *Coordinator) dropAgent(port int, link agentLink) {
	c.mu.Lock()
	if c.agents[port] == link {
		c.agents[port] = nil
		c.nAgents--
	}
	c.mu.Unlock()
}

// applyStats merges one TCP agent report and retires any completed
// CoFlows immediately (the prototype path; the testbed retires once
// per boundary in StepSchedule instead — see InprocAgent.Report).
func (c *Coordinator) applyStats(s *statsMsg) {
	now := c.cfg.Clock.Now()
	c.polMu.Lock()
	c.mu.Lock()
	start := time.Now()
	for i := range s.Flows {
		c.mergeStatLocked(&s.Flows[i], now)
	}
	merged := time.Now()
	c.retireLocked(now)
	retired := time.Now()
	c.mu.Unlock()
	c.polMu.Unlock()
	c.schedMu.Lock()
	c.phases.Merge += merged.Sub(start)
	c.phases.Retire += retired.Sub(merged)
	c.schedMu.Unlock()
}

// mergeStatLocked folds one flow's reported progress into coordinator
// state and queues its CoFlow for retireLocked if the flow finished.
// Caller holds polMu and mu (it mutates runtime state the scheduler
// reads). Zero-alloc: every flow of every agent report of every
// boundary goes through here.
//
//saath:hotpath zero-alloc steady state guarded by TestTestbedLayerGuards
func (c *Coordinator) mergeStatLocked(fs *FlowStat, now time.Time) {
	lc := c.live[coflow.CoFlowID(fs.CoFlow)] //saath:alloc-ok reports name flows by the wire's (coflow ID, index); the ID lookup is the one map on this path
	if lc == nil || fs.Index < 0 || fs.Index >= len(lc.rt.Flows) {
		return
	}
	f := lc.rt.Flows[fs.Index]
	if sent := coflow.Bytes(fs.Sent); sent > f.Sent() {
		lc.rt.Progress(f, sent)
	}
	lc.rt.SetAvailable(f, fs.Available)
	if fs.Done && !f.Done() {
		lc.rt.Complete(f, coflow.Time(now.Sub(lc.registered)/time.Microsecond))
		c.finishing = append(c.finishing, lc)
	}
}

// retireLocked moves completed CoFlows from live to results. Caller
// holds polMu and mu. Only the CoFlows in finishing — one entry per
// flow that finished — are looked at, so a pass costs those flows, not
// the live set; and they are processed in ID order: the results append
// order and — critically — the IndexSpace release order are both
// deterministic, so later index assignments (and any scheduler
// tie-break that touches them) cannot drift with report order.
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (c *Coordinator) retireLocked(now time.Time) {
	if len(c.finishing) == 0 {
		return
	}
	slices.SortFunc(c.finishing, func(a, b *liveCoFlow) int { return cmp.Compare(a.spec.ID, b.spec.ID) })
	for _, lc := range c.finishing {
		// An entry may be of a CoFlow deregistered since, with flows still
		// to go, or retired by an earlier entry of this pass.
		if c.live[lc.spec.ID] != lc || !lc.rt.RefreshDone() { //saath:alloc-ok completion path: once per finished flow, not per boundary
			continue
		}
		c.results = append(c.results, CoFlowResult{
			ID:           lc.spec.ID,
			RegisteredAt: lc.registered,
			CompletedAt:  now,
			CCT:          now.Sub(lc.registered),
			Width:        lc.rt.Width(),
			Bytes:        lc.spec.TotalSize(),
		})
		c.departLocked(lc, now)
	}
	clear(c.finishing)
	c.finishing = c.finishing[:0]
}

// departLocked tells the policy a retired CoFlow is gone and drops it
// from the live set. A Depart that panics still drops it, before the
// panic goes on to the round's caller: its result is recorded, so it
// must not stay live with nothing pending. Caller holds polMu and mu.
func (c *Coordinator) departLocked(lc *liveCoFlow, now time.Time) {
	defer c.dropLiveLocked(lc)
	c.cfg.Scheduler.Depart(lc.rt, c.wallTime(now))
}

// byArrival is sched.ByArrival's order, the one snap.Active is kept in;
// (arrival, ID) is unique among live CoFlows, so a binary search lands
// on exactly one position.
func byArrival(a, b *coflow.CoFlow) int {
	if a.Arrived != b.Arrived {
		return cmp.Compare(a.Arrived, b.Arrived)
	}
	return cmp.Compare(a.ID(), b.ID())
}

// dropLiveLocked takes a retired or deregistered CoFlow out of the ID
// lookup, the arrival order and the index space; the caller has told
// the scheduler. Caller holds polMu and mu.
//
//saath:alloc-ok completion path: once per departing CoFlow, not per boundary
func (c *Coordinator) dropLiveLocked(lc *liveCoFlow) {
	delete(c.live, lc.spec.ID)
	if i, ok := slices.BinarySearchFunc(c.snap.Active, lc.rt, byArrival); ok {
		c.snap.Active = slices.Delete(c.snap.Active, i, i+1)
	}
	c.space.Release(lc.rt)
}

// wallTime maps clock time to the scheduler's Time axis (µs since the
// clock's epoch; only deltas matter to schedulers).
func (c *Coordinator) wallTime(t time.Time) coflow.Time {
	return coflow.Time(t.UnixNano() / 1e3)
}

// scheduleLoop recomputes and pushes the schedule every δ (§5: the
// coordinator and agents work pipelined — agents follow the previous
// schedule until a new one arrives).
func (c *Coordinator) scheduleLoop() {
	ticker := time.NewTicker(c.cfg.Delta)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopped:
			return
		case <-ticker.C:
		}
		c.scheduleTick()
	}
}

// scheduleTick is one ticker round. A round that panics — a policy bug
// in Schedule or Depart — is recovered, counted and its panic value and
// stack kept (FailedRounds, /status), and the loop ticks on: scheduleOnce
// releases its locks on the way out, so the next round, registrations
// and reports still get in, and agents keep the last orders they were
// sent. StepSchedule, the caller-driven
// round, lets the panic reach its caller instead.
func (c *Coordinator) scheduleTick() {
	defer func() {
		if p := recover(); p != nil {
			last := fmt.Sprintf("%v\n%s", p, debug.Stack())
			c.schedMu.Lock()
			c.failedRounds++
			c.lastPanic = last
			c.schedMu.Unlock()
		}
	}()
	c.scheduleOnce()
}

// pendingSend is one computed schedule awaiting delivery; sends happen
// after the policy locks are released so a slow or stalled agent can
// never wedge the schedule round or block registrations.
type pendingSend struct {
	port int
	link agentLink
	msg  scheduleMsg
}

// StepSchedule runs one scheduling round now: retire completed
// CoFlows, compute the schedule, push orders to connected agents. It
// returns the number of still-live CoFlows after retirement. The
// testbed driver calls this at every δ boundary of virtual time; under
// Serve the background ticker calls the same path.
func (c *Coordinator) StepSchedule() (live int) {
	return c.scheduleOnce()
}

// scheduleOnce is one δ boundary. Its cost contract: work follows the
// live flows and the ports they touch — never NumPorts, apart from one
// word per 32 ports in the fabric reset — and a boundary whose live set
// did not change allocates nothing.
//
//saath:hotpath zero-alloc steady state guarded by TestCoordinatorBoundaryZeroAlloc
func (c *Coordinator) scheduleOnce() (liveN int) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	now := c.cfg.Clock.Now()
	c.polMu.Lock()
	// A policy that panics — in Schedule, or in a Depart under mu — must
	// not take the locks with it: the panic is this round's caller's to
	// see, and the next round, registration or report still has to get
	// in.
	polLocked, muLocked := true, false
	defer func() {
		if muLocked {
			c.mu.Unlock()
		}
		if polLocked {
			c.polMu.Unlock()
		}
	}()
	c.mu.Lock()
	muLocked = true
	t0 := time.Now()
	var merge time.Duration
	if !c.mergeSince.IsZero() {
		merge, c.mergeSince = t0.Sub(c.mergeSince), time.Time{}
	}
	// Boundary retirement: the testbed path reports stats without
	// retiring (InprocAgent.Report), so completions are collected here,
	// once per round, in ID order. The TCP path retired in applyStats
	// already; this is then a no-op.
	c.retireLocked(now)
	liveN = len(c.snap.Active)
	c.epoch++
	epoch := c.epoch
	c.mu.Unlock()
	muLocked = false
	c.fab.Reset()
	c.snap.Now = c.wallTime(now)
	c.snap.FlowCap, c.snap.CoFlowCap = c.space.FlowCap(), c.space.CoFlowCap()
	t1 := time.Now()
	alloc := c.cfg.Scheduler.Schedule(&c.snap)
	t2 := time.Now()

	// Group orders by sending agent. Every pending flow gets an order
	// (rate 0 pauses), so agents always track the newest rates. mu is
	// held for the agent table only; nothing in here blocks.
	c.mu.Lock()
	muLocked = true
	for _, p := range c.touched {
		c.orders[p] = c.orders[p][:0]
	}
	c.touched = c.touched[:0]
	for _, cf := range c.snap.Active {
		for _, f := range cf.PendingFlows() {
			dst := c.agents[f.Dst]
			if dst == nil {
				continue // receiver not connected yet
			}
			src := int(f.Src)
			if len(c.orders[src]) == 0 {
				c.touched = append(c.touched, src)
			}
			c.orders[src] = append(c.orders[src], FlowOrder{
				CoFlow:  int64(cf.ID()),
				Index:   f.ID.Index,
				DstPort: int(f.Dst),
				DstAddr: dst.DataAddr(),
				Size:    int64(f.Size),
				RateBps: float64(alloc.Rate(f.Idx)),
				slot:    int32(f.Idx),
			})
		}
	}
	c.sends = c.sends[:0]
	for _, p := range c.touched {
		if a := c.agents[p]; a != nil {
			c.sends = append(c.sends, pendingSend{port: p, link: a, msg: scheduleMsg{Epoch: epoch, Orders: c.orders[p]}})
		}
	}
	c.mu.Unlock()
	c.polMu.Unlock()
	muLocked, polLocked = false, false
	t3 := time.Now()

	// Deliver outside the policy locks, first-touched port first: a
	// stalled TCP agent eats its own write deadline without blocking
	// registrations, and a failed link is detached immediately so the
	// scheduler sees the reduced fabric next round.
	for i := range c.sends {
		s := &c.sends[i]
		if err := s.link.Deliver(&s.msg); err != nil {
			s.link.Shut()
			c.dropAgent(s.port, s.link)
		}
	}
	t4 := time.Now()

	c.schedMu.Lock()
	c.schedStats.record(t2.Sub(t1))
	c.phases.Merge += merge
	c.phases.Retire += t1.Sub(t0)
	c.phases.Encode += t3.Sub(t2)
	c.phases.Deliver += t4.Sub(t3)
	c.schedMu.Unlock()
	return liveN
}

// Phases reports where the coordinator's boundary time went so far.
// Schedule is read from the latency recorder, so it is exactly the sum
// ScheduleLatency's mean divides.
func (c *Coordinator) Phases() PhaseTotals {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	p := c.phases
	p.Schedule = c.schedStats.total
	return p
}

// FailedRounds reports how many ticker rounds a panic cost since
// startup, and the last such panic's value and goroutine stack ("" if
// none). Both stay zero in Manual mode, where StepSchedule's caller sees
// the panic.
func (c *Coordinator) FailedRounds() (n int64, lastPanic string) {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	return c.failedRounds, c.lastPanic
}

// ScheduleLatency reports the coordinator's Table-2 cost: wall-clock
// Schedule-call count, mean, max and P90. Out-of-band measurement —
// never part of deterministic study output.
func (c *Coordinator) ScheduleLatency() (calls int, mean, max, p90 time.Duration) {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	return c.schedStats.calls, c.schedStats.mean(), c.schedStats.max, c.schedStats.p90()
}

// AgentCount returns the number of connected agents.
func (c *Coordinator) AgentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nAgents
}

// LiveCount returns the number of admitted, not-yet-completed CoFlows.
func (c *Coordinator) LiveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

// CompletedCount returns the number of completed CoFlows.
func (c *Coordinator) CompletedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// AdmissionStats returns the admission-control counters: coflows
// admitted and rejected since startup.
func (c *Coordinator) AdmissionStats() (admitted, rejected int64) {
	c.admMu.Lock()
	defer c.admMu.Unlock()
	return c.nAdmitted, c.nRejected
}

// Results returns a snapshot of completed CoFlows, sorted by coflow ID
// with completion time as the tie-break — a deterministic order, so
// exports built on it are byte-stable regardless of retirement
// interleaving.
func (c *Coordinator) Results() []CoFlowResult {
	c.mu.Lock()
	out := append([]CoFlowResult(nil), c.results...)
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].CompletedAt.Before(out[j].CompletedAt)
	})
	return out
}

// Register admits and registers one CoFlow at the current clock time.
// This is the arrival-time decision point: the admission bucket and
// the live-coflow cap are consulted against live coordinator state the
// instant the coflow arrives — not batched, not deferred to a schedule
// round. Returns ErrAdmission on rejection, ErrDuplicate for a reused
// ID, or a validation error.
func (c *Coordinator) Register(spec *coflow.Spec) error {
	if err := c.checkSpec(spec); err != nil {
		return err
	}
	now := c.cfg.Clock.Now()
	rt := coflow.New(spec)
	rt.Arrived = c.wallTime(now)
	c.polMu.Lock()
	defer c.polMu.Unlock()
	c.mu.Lock()
	if _, dup := c.live[spec.ID]; dup {
		c.mu.Unlock()
		return ErrDuplicate
	}
	if c.cfg.Admission.MaxLive > 0 && len(c.live) >= c.cfg.Admission.MaxLive {
		c.mu.Unlock()
		c.reject()
		return ErrAdmission
	}
	if c.adm != nil && !c.adm.TryTake(1) {
		c.mu.Unlock()
		c.reject()
		return ErrAdmission
	}
	c.live[spec.ID] = &liveCoFlow{spec: spec, rt: rt, registered: now}
	at, _ := slices.BinarySearchFunc(c.snap.Active, rt, byArrival)
	c.snap.Active = slices.Insert(c.snap.Active, at, rt)
	c.mu.Unlock()
	c.space.Assign(rt)
	c.cfg.Scheduler.Arrive(rt, c.wallTime(now))
	c.admMu.Lock()
	c.nAdmitted++
	c.admMu.Unlock()
	return nil
}

// checkSpec is the gate every spec passes before it can reach the
// port-indexed state: structurally valid, every port inside the fabric.
func (c *Coordinator) checkSpec(spec *coflow.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, f := range spec.Flows {
		if int(f.Src) >= c.cfg.NumPorts || int(f.Dst) >= c.cfg.NumPorts {
			return fmt.Errorf("runtime: coflow %d: port out of range", spec.ID)
		}
	}
	return nil
}

func (c *Coordinator) reject() {
	c.admMu.Lock()
	c.nRejected++
	c.admMu.Unlock()
}

// ---- REST API (the CoFlow operations of §5) ----

// SpecJSON is the REST representation of a CoFlow registration.
type SpecJSON struct {
	ID    int64 `json:"id"`
	Flows []struct {
		Src  int   `json:"src"`
		Dst  int   `json:"dst"`
		Size int64 `json:"size"`
	} `json:"flows"`
}

func (s SpecJSON) toSpec() (*coflow.Spec, error) {
	spec := &coflow.Spec{ID: coflow.CoFlowID(s.ID)}
	for _, f := range s.Flows {
		spec.Flows = append(spec.Flows, coflow.FlowSpec{
			Src: coflow.PortID(f.Src), Dst: coflow.PortID(f.Dst), Size: coflow.Bytes(f.Size),
		})
	}
	return spec, spec.Validate()
}

// handleCoFlows implements POST /coflows — register(). Admission
// rejections map to 429 so framework clients can distinguish "the
// cluster is shedding load" from a malformed registration.
func (c *Coordinator) handleCoFlows(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var sj SpecJSON
	if err := json.NewDecoder(r.Body).Decode(&sj); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := sj.toSpec()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch err := c.Register(spec); {
	case err == nil:
		w.WriteHeader(http.StatusCreated)
	case errors.Is(err, ErrDuplicate):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrAdmission):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// handleCoFlowByID implements DELETE (deregister) and PUT (update) on
// /coflows/{id}.
func (c *Coordinator) handleCoFlowByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/coflows/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		http.Error(w, "bad coflow id", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodDelete:
		c.polMu.Lock()
		c.mu.Lock()
		lc, ok := c.live[coflow.CoFlowID(id)]
		if ok {
			c.cfg.Scheduler.Depart(lc.rt, c.wallTime(c.cfg.Clock.Now()))
			c.dropLiveLocked(lc)
		}
		c.mu.Unlock()
		c.polMu.Unlock()
		if !ok {
			http.Error(w, "unknown coflow", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodPut:
		// update(): replace the flow structure (task migration /
		// restart after failure, §5), preserving accumulated progress
		// by flow index where sizes still match.
		var sj SpecJSON
		if err := json.NewDecoder(r.Body).Decode(&sj); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sj.ID = id
		spec, err := sj.toSpec()
		if err == nil {
			err = c.checkSpec(spec)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.polMu.Lock()
		defer c.polMu.Unlock()
		c.mu.Lock()
		lc, ok := c.live[coflow.CoFlowID(id)]
		if ok {
			old := lc.rt
			c.space.Release(old)
			lc.spec = spec
			lc.rt = coflow.New(spec)
			lc.rt.Arrived = old.Arrived
			// Same (arrival, ID), so the new runtime state takes the old
			// one's place in the arrival order.
			if i, ok := slices.BinarySearchFunc(c.snap.Active, old, byArrival); ok {
				c.snap.Active[i] = lc.rt
			}
			lc.rt.CarryOver(old)
			c.space.Assign(lc.rt)
			c.finishing = append(c.finishing, lc) // the new flow set may hold nothing but finished flows
		}
		c.mu.Unlock()
		if !ok {
			http.Error(w, "unknown coflow", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.Results())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	admitted, rejected := c.AdmissionStats()
	failed, lastPanic := c.FailedRounds()
	c.mu.Lock()
	status := struct {
		Agents       int      `json:"agents"`
		Live         int      `json:"live"`
		Completed    int      `json:"completed"`
		Admitted     int64    `json:"admitted"`
		Rejected     int64    `json:"rejected"`
		FailedRounds int64    `json:"failedRounds"`
		LastPanic    string   `json:"lastPanic,omitempty"`
		Scheduler    string   `json:"scheduler"`
		Policies     []string `json:"registeredPolicies"`
	}{
		Agents:       c.nAgents,
		Live:         len(c.live),
		Completed:    len(c.results),
		Admitted:     admitted,
		Rejected:     rejected,
		FailedRounds: failed,
		LastPanic:    lastPanic,
		Scheduler:    c.cfg.Scheduler.Name(),
		Policies:     sched.Names(),
	}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(status)
}
