// Package core implements Saath, the paper's online CoFlow scheduler
// (§3–§4). Saath extends the Aalo priority-queue architecture with
// three spatially-aware mechanisms:
//
//   - all-or-none: either every sendable flow of a CoFlow gets
//     bandwidth this interval, or none does, eliminating out-of-sync
//     scheduling across ports;
//   - per-flow queue thresholds (Eq. 1): a CoFlow demotes as soon as
//     any single flow crosses its fair share of the queue threshold,
//     accelerating queue transitions;
//   - Least-Contention-First (LCoF): within each queue, CoFlows that
//     block the fewest other CoFlows are scheduled first, with
//     FIFO-derived deadlines (d·C_q·t) guaranteeing starvation freedom.
//
// Work conservation hands ports left idle by all-or-none to the missed
// CoFlows (Fig. 4(c)), and the cluster-dynamics path (§4.3)
// approximates SRTF once some flows of a CoFlow have finished.
//
// The ablation variants the paper evaluates in Fig. 10–12 (A/N+FIFO
// and A/N+PF+FIFO) are the same scheduler with features toggled off
// via sched.Params.
//
// Schedule runs every δ (8 ms in the paper), so it is the simulator's
// hottest path: all per-interval state — the allocation vector, queue
// counts, buckets and the contention vector — is reused across ticks,
// and a call that does change something costs about what changed.
// Contention is kept as pairwise counts that move only when a CoFlow's
// port signature does (sched.ContentionIndex); each queue starts from
// the order the last full call left it in and is repaired, not sorted
// afresh (orderQueue). The index's port signatures serve admission and
// work conservation too: all-or-none admits a CoFlow by one test of its
// signature against the fabric's open ports
// (fabric.Fabric.SignatureAvailable), not a walk over its flows; work
// conservation passes over a missed CoFlow none of whose egress or none
// of whose ingress ports is still open (fabric.Fabric.OpenEnds), and
// within one it passes over the rest of a receiver's run of flows once
// that receiver is closed. A steady-state tick allocates nothing.
//
// Straggler tracking (§4.3) follows the allocation, not the live set:
// all-or-none serves few CoFlows per interval and parks the rest, and
// only a flow that held a rate has progress to compare with it. Schedule
// lists the flows it rates where it rates them, and the next call
// observes exactly those, by position under whoever holds their indices
// then. The walks over every pending flow that this replaced live in
// oracle_test.go; TestRateDrivenTrackingMatchesFullWalks holds the two
// equal — rates, caps, streaks, queue history, deadlines — through
// arrivals, departures with index reuse, restarts and withheld flows.
//
// Schedule runs every δ and most boundaries give it nothing new to
// decide from, so it keeps its last decision. Per CoFlow it keeps the
// queue it derived, and derives it again only where the CoFlow's
// mutation epoch or progress stamp moved (coflow.CoFlow.Progress, the
// one writer of a pending flow's Sent, moves it). And when the call as a
// whole repeats the previous one — the same CoFlows, pointer for pointer,
// under the same epochs and in the same queues; the same ones past their
// starvation deadline; no straggler cap moved; the same fabric, full; the
// vector it returned still under the content stamp it left it with — it
// runs the queue check and the straggler observation as always and then
// hands that vector out again, re-recording the flows it rated
// (reissue). Each condition is exact, not a heuristic: a reissued call
// leaves every track, deadline and list as the full path would, which
// TestHeldScheduleMatchesFull holds it to against a twin that forgets.
package core

import (
	"cmp"

	"saath/internal/coflow"
	"saath/internal/fabric"
	"saath/internal/queues"
	"saath/internal/sched"
)

// Saath is the global coordinator's scheduling policy (Fig. 7).
type Saath struct {
	params sched.Params
	ladder *queues.Ladder // params.Queues with its thresholds computed once
	name   string
	// states holds the per-CoFlow bookkeeping, indexed densely by
	// CoFlow.Idx; a slot whose c is nil is free.
	states []coflowState

	// tracks holds per-flow throughput observations, indexed densely by
	// Flow.Idx. The zero value means "not yet observed" (lastAlloc 0).
	tracks   []flowTrack
	lastTime coflow.Time // previous Schedule invocation, for rate observation

	// rated names every live flow whose track carries a rate (lastAlloc
	// > 0): the flows the previous Schedule rated. Straggler tracking visits these and nothing else, so it costs the
	// flows that were served, not every pending flow. observeProgress
	// empties it into observed, where a held Schedule finds the flows to
	// rate again.
	rated    []ratedRef
	observed []ratedRef

	// last is what the previous Schedule decided and from what; see reissue.
	last lastDecision

	// Per-interval scratch, reused across ticks so the steady-state
	// Schedule call performs zero heap allocations. buckets is more than
	// scratch: each queue's order as the last full call left it, which the
	// next one repairs (orderQueue).
	cindex     *sched.ContentionIndex
	queueCount []int
	buckets    [][]*coflow.CoFlow
	kc         []int  // contention k_c (or width proxy) by CoFlow.Idx
	gen        uint64 // Schedule calls over a live set so far, for coflowState's stamps
	missed     []*coflow.CoFlow
}

// coflowState is the coordinator's bookkeeping for one live CoFlow.
type coflowState struct {
	c         *coflow.CoFlow // holder of the slot, nil when free
	queue     int
	enteredAt coflow.Time // when the CoFlow entered its current queue
	deadline  coflow.Time // absolute starvation deadline for this queue

	// c's CacheEpoch and ProgressStamp when the previous Schedule looked
	// at it: while both stand, targetQueue(c) is still queue. Epoch 0 is
	// "not looked at yet" — a new holder, or a zero-value CoFlow, which
	// has no epoch to go by.
	epoch, progress uint64

	// The Saath.gen of the last call that listed c, and of the last one
	// that kept c in its bucket's order.
	listed, placed uint64
}

// lastDecision is the previous Schedule's output and the inputs of it
// that are not per-CoFlow state. A δ boundary mostly finds nothing
// changed: the same CoFlows with the same flows sendable, each in the
// queue it was in, the same ones past their deadline, no straggler cap
// moved. The order, the admissions and the rates would then come out as
// they did, so Schedule hands the vector out again as it is (reissue).
type lastDecision struct {
	issued sched.Issued     // the vector returned and the fabric it was drawn from
	active []*coflow.CoFlow // snap.Active, copied: the caller reuses its array
	rated  int              // len(s.rated) on return
	// capsMoved is set when observeProgress changes a track's estCap;
	// Schedule takes it down once it has scheduled with the new caps.
	// (Depart clears caps too, but of a CoFlow that then leaves active.)
	capsMoved bool
}

// flowTrack observes one flow's achieved throughput so the coordinator
// can detect stragglers: a flow that consistently moves far fewer
// bytes than its allocation (slowed task, congested host) becomes the
// CoFlow's MADD bottleneck, and the surplus reservation is released to
// work conservation instead of idling a port (§4.2 D2, §4.3).
type flowTrack struct {
	lastSent  coflow.Bytes
	lastAlloc coflow.Rate
	estCap    coflow.Rate // 0 = no cap (flow keeps up with its allocation)
	lagStreak int         // consecutive intervals below the laggard ratio
}

// ratedRef names a rated flow by position — owner's CoFlow.Idx, then
// FlowID.Index within it — and is resolved through states at the next
// Schedule. One whose CoFlow departed resolves to nothing, or to a
// successor under the same index whose tracks Depart cleared.
type ratedRef struct {
	coflow, flow int32
}

// New builds a Saath scheduler. Use sched.DefaultParams for the full
// design; clear LCoF / PerFlowThresholds / WorkConservation for the
// paper's ablations.
func New(p sched.Params) (*Saath, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	name := "saath"
	switch {
	case !p.LCoF && !p.PerFlowThresholds:
		name = "saath/an+fifo"
	case !p.LCoF:
		name = "saath/an+pf+fifo"
	case !p.PerFlowThresholds:
		name = "saath/an+lcof"
	}
	if !p.WorkConservation {
		name += "+nowc"
	}
	return &Saath{
		params:   p,
		ladder:   p.Queues.Ladder(),
		name:     name,
		cindex:   sched.NewContentionIndex(),
		lastTime: -1,
	}, nil
}

func init() {
	sched.Register("saath", func(p sched.Params) (sched.Scheduler, error) {
		p.LCoF, p.PerFlowThresholds = true, true
		return New(p)
	})
	sched.Register("saath/an+fifo", func(p sched.Params) (sched.Scheduler, error) {
		p.LCoF, p.PerFlowThresholds = false, false
		return New(p)
	})
	sched.Register("saath/an+pf+fifo", func(p sched.Params) (sched.Scheduler, error) {
		p.LCoF, p.PerFlowThresholds = false, true
		return New(p)
	})
	sched.Register("saath/nowc", func(p sched.Params) (sched.Scheduler, error) {
		p.LCoF, p.PerFlowThresholds = true, true
		p.WorkConservation = false
		return New(p)
	})
	sched.Register("saath/width-contention", func(p sched.Params) (sched.Scheduler, error) {
		p.LCoF, p.PerFlowThresholds = true, true
		p.WidthContentionProxy = true
		return New(p)
	})
}

// Name identifies the configured variant.
func (s *Saath) Name() string { return s.name }

// Arrive registers a CoFlow; every CoFlow starts in the highest
// priority queue with a fresh FIFO-derived deadline. The CoFlow must
// already hold its dense index (the engine and the coordinator assign
// it first); an unindexed one is adopted by the first Schedule that
// lists it, as if it had arrived then.
func (s *Saath) Arrive(c *coflow.CoFlow, now coflow.Time) {
	if c.Idx < 0 {
		return
	}
	s.states = coflow.Grow(s.states, c.Idx+1)
	// Deadline is set on first Schedule, when the queue population
	// C_q is known; mark it unset.
	s.states[c.Idx] = coflowState{c: c, enteredAt: now, deadline: -1}
}

// Depart forgets a finished CoFlow. Flow tracks are cleared by index so
// a later reuse of the index starts fresh.
func (s *Saath) Depart(c *coflow.CoFlow, now coflow.Time) {
	if c.Idx >= 0 && c.Idx < len(s.states) && s.states[c.Idx].c == c {
		s.states[c.Idx] = coflowState{}
	}
	for _, f := range c.Flows {
		if f.Idx >= 0 && f.Idx < len(s.tracks) {
			s.tracks[f.Idx] = flowTrack{}
		}
	}
}

// growScratch sizes the per-interval scratch for this snapshot's index
// caps. Growth only happens on arrival epochs; steady-state ticks pass
// straight through.
func (s *Saath) growScratch(snap *sched.Snapshot) {
	k := s.params.Queues.NumQueues
	if len(s.queueCount) != k {
		s.queueCount = make([]int, k)
		s.buckets = make([][]*coflow.CoFlow, k)
	} else {
		for i := range s.queueCount {
			s.queueCount[i] = 0
		}
	}
	s.kc = coflow.Grow(s.kc, snap.CoFlowCap)
	s.states = coflow.Grow(s.states, snap.CoFlowCap)
	s.tracks = coflow.Grow(s.tracks, snap.FlowCap)
}

// Schedule computes the next interval's allocation, following Fig. 7:
// assign queues, order each queue (deadline-expired first, then LCoF
// or FIFO), admit all-or-none, then work-conserve leftovers per queue
// (serve).
//
//saath:hotpath zero-alloc steady state guarded by TestScheduleAllocGuards
func (s *Saath) Schedule(snap *sched.Snapshot) *sched.RateVec {
	// hold stays true while this call looks like the last one: here, the
	// vector it returned still as it left it, drawn from this fabric at
	// full capacity, which it has again; in (1), the same CoFlows one by
	// one.
	last := &s.last
	prev, hold := last.issued.Begin(snap)
	if len(snap.Active) == 0 {
		s.lastTime = snap.Now
		return snap.Allocation() // the reset moves the stamp: nothing is held past here
	}
	hold = hold && len(snap.Active) == len(last.active)
	s.gen++
	fab := snap.Fabric
	portRate := fab.PortRate()
	s.growScratch(snap)

	// (1) AssignQueue: per-flow thresholds (Eq. 1) or Aalo-style
	// total bytes for the ablation; the §4.3 dynamics path overrides
	// with the SRTF estimate when flows have finished. It reads no flow
	// track, so it runs ahead of (0), which resolves the rated flows
	// through the holders refreshed here.
	queueCount := s.queueCount
	for i, c := range snap.Active {
		st := &s.states[c.Idx]
		if st.c != c { // defensive: the engine and the coordinator call Arrive first
			*st = coflowState{c: c, enteredAt: snap.Now, deadline: -1}
		}
		st.listed = s.gen
		// The queue rules read what the epoch and the progress stamp
		// cover, so the queue stands while both do. The rest of the
		// decision reads the sendable set, which the epoch covers alone.
		epoch, progress := c.CacheEpoch(), c.ProgressStamp()
		sameFlows := epoch != 0 && epoch == st.epoch
		q := st.queue
		if !sameFlows || progress != st.progress {
			q = s.targetQueue(c)
			st.epoch, st.progress = epoch, progress
		}
		hold = hold && sameFlows && last.active[i] == c && q == st.queue &&
			// A deadline passed since the last call reorders the queue. (One
			// not derived yet belongs to a state not looked at yet.)
			(s.lastTime >= st.deadline) == (snap.Now >= st.deadline)
		if q != st.queue {
			st.queue = q
			st.enteredAt = snap.Now
			st.deadline = -1 // re-derive below with the new queue's population
		}
		queueCount[st.queue]++
	}
	// (0) Observe achieved throughput since the previous interval and
	// refresh straggler caps (§4.3): a flow that moved well under its
	// allocation gets its future reservation capped near what it
	// demonstrably sustains; caps decay quickly once the flow recovers.
	s.observeProgress(snap)

	if hold && !last.capsMoved {
		return s.reissue(prev, snap.Now)
	}
	alloc := snap.Allocation()

	// Fresh deadlines: d · C_q · t, with C_q the queue population at
	// entry and t the minimum residence time of that queue (§4.2 D5).
	for _, c := range snap.Active {
		st := &s.states[c.Idx]
		if st.deadline < 0 {
			cq := queueCount[st.queue]
			if cq < 1 {
				cq = 1
			}
			t := s.ladder.MinResidence(st.queue, portRate)
			st.deadline = st.enteredAt + coflow.Time(s.params.DeadlineFactor*float64(cq))*t
		}
	}

	// (2) Bucket by queue, starting from each queue's order of the last
	// full call: keep the CoFlows still in it, append the newcomers in
	// Active order, and let (4) repair the order.
	for q, bucket := range s.buckets {
		kept := bucket[:0]
		for _, c := range bucket {
			if c.Idx < 0 || c.Idx >= len(s.states) {
				continue // departed: its indices went back to the space
			}
			if st := &s.states[c.Idx]; st.c == c && st.listed == s.gen && st.queue == q && len(c.SendableFlows()) > 0 {
				kept = append(kept, c)
				st.placed = s.gen
			}
		}
		s.buckets[q] = kept
	}
	for _, c := range snap.Active {
		if st := &s.states[c.Idx]; st.placed != s.gen && len(c.SendableFlows()) > 0 {
			q := st.queue
			s.buckets[q] = append(s.buckets[q], c)
		}
	}

	// (3) Contention k_c over the live set, refreshed incrementally:
	// only CoFlows whose sendable set changed since the last interval
	// are re-indexed. The width-proxy ablation swaps in CoFlow width as
	// a cheaper stand-in for the blocked-CoFlow count. Admission and work
	// conservation read the index's port signatures, so every full call
	// syncs it, whatever the variant.
	s.cindex.Sync(snap.Active)
	if s.params.LCoF {
		lcof := !s.params.WidthContentionProxy
		for _, c := range snap.Active {
			if lcof {
				s.kc[c.Idx] = s.cindex.K(c)
			} else {
				s.kc[c.Idx] = c.NumPending()
			}
		}
	}

	// (4) Scan queues from highest priority; within each queue order,
	// admit all-or-none, then work-conserve that queue's misses.
	for q := range s.buckets {
		bucket := s.buckets[q]
		if len(bucket) == 0 {
			continue
		}
		s.orderQueue(bucket, snap.Now)
		s.serve(fab, bucket, alloc)
	}
	s.lastTime = snap.Now
	last.issued.End(snap, alloc)
	last.active = append(last.active[:0], snap.Active...) // amortized: grows with the live set, on arrival epochs
	last.rated, last.capsMoved = len(s.rated), false
	return alloc
}

// serve admits one queue's CoFlows all-or-none, in the queue's order,
// and then work-conserves the ones that missed (Fig. 7 lines 6-14).
// Admission asks whether every port direction in the CoFlow's signature
// still has capacity (fabric.Fabric.SignatureAvailable): a test of a few
// bitset words against the fabric's open set, not of each sendable flow.
// The signature names exactly the ports of the CoFlow's sendable flows,
// so the answer is a scan of its flows' residuals; TestServeMatchesReference
// and FuzzWorkConserve hold the two equal.
func (s *Saath) serve(fab *fabric.Fabric, bucket []*coflow.CoFlow, alloc *sched.RateVec) {
	s.missed = s.missed[:0]
	for _, c := range bucket {
		if !fab.SignatureAvailable(s.cindex.Signature(c)) {
			s.missed = append(s.missed, c)
			continue
		}
		rate := fab.EqualRateForCoFlow(c)
		// MADD (D2): the slowest flow's achievable rate binds the
		// CoFlow; straggler caps make that observable online.
		for _, f := range c.SendableFlows() {
			if tr := &s.tracks[f.Idx]; tr.estCap > 0 && tr.estCap < rate {
				rate = tr.estCap
			}
		}
		if rate <= 0 {
			s.missed = append(s.missed, c)
			continue
		}
		for _, f := range c.SendableFlows() {
			alloc.Set(f.Idx, rate)
			fab.Allocate(f.Src, f.Dst, rate)
			s.recordAllocation(c, f, rate)
		}
	}
	if s.params.WorkConservation {
		s.workConserve(fab, s.missed, alloc)
	}
}

// reissue is Schedule's way out when nothing it decides from has changed
// since the previous call: the vector goes out again as it is, and the
// flows that call rated — observeProgress just moved them, in order,
// from rated to observed — are recorded again at their rates with today's Sent as the baseline. Every
// track, the rated list and lastTime end up as the full path would leave
// them. The fabric is not drawn down; see sched.Snapshot.Fabric.
func (s *Saath) reissue(alloc *sched.RateVec, now coflow.Time) *sched.RateVec {
	for _, ref := range s.observed[:s.last.rated] {
		c := s.states[ref.coflow].c
		f := c.Flows[ref.flow]
		s.recordAllocation(c, f, alloc.Rate(f.Idx))
	}
	s.lastTime = now
	return alloc
}

// observeProgress compares each flow's bytes moved since the last
// interval against the rate it was allocated, deriving the straggler
// cap used by MADD rate assignment. Caps double each interval the flow
// keeps up, so recovered flows quickly regain their full share.
//
// Only the flows on the rated list are visited: any other has lastAlloc
// 0 and nothing to compare. Each visited track goes back to lastAlloc 0
// — recordAllocation sets it again if this Schedule rates the flow — so
// an unrated flow's lagStreak and estCap stay as they were, and its
// lastSent goes stale unread. The list ends up empty and what it held in
// observed, for reissue.
func (s *Saath) observeProgress(snap *sched.Snapshot) {
	dt := snap.Now - s.lastTime
	observe := s.lastTime >= 0 && dt > 0
	const (
		laggard  = 0.6 // achieving < 60% of the allocation marks a laggard interval
		streak   = 3   // consecutive laggard intervals before capping (noise guard)
		headroom = 1.25
	)
	// The cap never drops below a fixed fraction of line rate, so a
	// mis-measured flow always retains enough allocation to prove
	// itself and recover (caps double on every kept-up interval).
	floor := snap.Fabric.PortRate() / 16
	for _, ref := range s.rated {
		c := s.states[ref.coflow].c
		if c == nil || int(ref.flow) >= len(c.Flows) {
			continue // departed, its index maybe taken by a narrower arrival
		}
		// A finished flow's track is never read again (caps apply to
		// sendable flows) and Depart clears it.
		f := c.Flows[ref.flow]
		if f.Done() || f.Idx < 0 || f.Idx >= len(s.tracks) {
			continue
		}
		tr := &s.tracks[f.Idx]
		if tr.lastAlloc <= 0 {
			continue // listed twice, or Depart cleared it and the index changed hands
		}
		last := tr.lastAlloc
		tr.lastAlloc = 0
		if !observe {
			continue
		}
		moved := f.Sent() - tr.lastSent
		observed := coflow.Rate(float64(moved) / dt.Seconds())
		if observed < last*laggard {
			tr.lagStreak++
			if tr.lagStreak >= streak {
				cap := observed * headroom
				if cap < floor {
					cap = floor
				}
				if cap != tr.estCap {
					tr.estCap = cap
					s.last.capsMoved = true
				}
			}
			continue
		}
		tr.lagStreak = 0
		if tr.estCap > 0 {
			tr.estCap *= 2
			if tr.estCap >= snap.Fabric.PortRate() {
				tr.estCap = 0
			}
			s.last.capsMoved = true
		}
	}
	s.rated, s.observed = s.observed[:0], s.rated
}

// recordAllocation snapshots one rated flow's progress baseline for the
// next observation round; rate is the flow's whole allocation so far
// this interval.
func (s *Saath) recordAllocation(c *coflow.CoFlow, f *coflow.Flow, rate coflow.Rate) {
	tr := &s.tracks[f.Idx]
	tr.lastSent = f.Sent()
	tr.lastAlloc = rate
	s.rated = append(s.rated, ratedRef{coflow: int32(c.Idx), flow: int32(f.Index())})
}

// targetQueue returns the queue a CoFlow belongs in right now.
func (s *Saath) targetQueue(c *coflow.CoFlow) int {
	if s.params.DynamicsSRTF {
		if m, ok := s.srtfEstimate(c); ok {
			// Map the estimated max remaining flow length onto the
			// per-flow ladder: a CoFlow with little left rejoins high
			// priority queues even if it has sent a lot (§4.3).
			return s.ladder.QueueForPerFlow(m, c.Width())
		}
	}
	if s.params.PerFlowThresholds {
		return s.ladder.QueueForPerFlow(c.MaxSent(), c.Width())
	}
	return s.ladder.QueueForBytes(c.TotalSent())
}

// srtfEstimate implements the §4.3 heuristic: once some flows of a
// CoFlow finished, estimate each unfinished flow's remaining length as
// median(finished lengths) − sent, and return the maximum, m_c.
//
// The estimate is only trusted in the CoFlow's tail phase — at least
// half its flows finished — which is the straggler/failure situation
// the paper targets. Triggering on the very first completion would let
// one early small flow of a large unequal-length CoFlow fake a tiny
// remaining size and hoist the whole CoFlow into the top queue, where
// it blocks genuinely short CoFlows. The second result is false when
// the estimate does not apply. The finished-flow median is kept by the
// CoFlow (Complete folds each completion into it), so a call reads only
// the pending flows.
func (s *Saath) srtfEstimate(c *coflow.CoFlow) (coflow.Bytes, bool) {
	pending := c.PendingFlows()
	finished := c.Width() - len(pending)
	if finished == 0 || len(pending) == 0 || finished < len(pending) {
		return 0, false
	}
	fe := c.DoneMedian()
	var worst coflow.Bytes
	for _, f := range pending {
		rem := fe - f.Sent()
		if rem < 0 {
			rem = 0
		}
		if rem > worst {
			worst = rem
		}
	}
	return worst, true
}

// orderQueue puts one queue's CoFlows in scanning order: CoFlows past
// their starvation deadline first (oldest deadline first), then LCoF by
// ascending contention, or pure FIFO when LCoF is off. The bucket
// arrives in the order the last full call left it, newcomers at the
// back; between two calls few CoFlows move, so an insertion sort repairs
// it in about one comparison per CoFlow. inQueueOrder is a strict total
// order, so the result is the sorted order whatever the starting
// permutation; TestRepairedOrderMatchesFreshSort holds it to a stable
// sort from scratch.
func (s *Saath) orderQueue(bucket []*coflow.CoFlow, now coflow.Time) {
	for i := 1; i < len(bucket); i++ {
		c, j := bucket[i], i
		for ; j > 0 && s.inQueueOrder(c, bucket[j-1], now) < 0; j-- {
			bucket[j] = bucket[j-1]
		}
		bucket[j] = c
	}
}

// inQueueOrder compares two CoFlows of one queue: expired first, then
// by deadline among the expired, then by k_c under LCoF, then by
// arrival, then by ID.
func (s *Saath) inQueueOrder(a, b *coflow.CoFlow, now coflow.Time) int {
	sa, sb := &s.states[a.Idx], &s.states[b.Idx]
	ea, eb := now >= sa.deadline, now >= sb.deadline
	if ea != eb {
		if ea {
			return -1 // expired first
		}
		return 1
	}
	if ea && eb && sa.deadline != sb.deadline {
		return cmp.Compare(sa.deadline, sb.deadline)
	}
	if s.params.LCoF {
		if ka, kb := s.kc[a.Idx], s.kc[b.Idx]; ka != kb {
			return cmp.Compare(ka, kb)
		}
	}
	if a.Arrived != b.Arrived {
		return cmp.Compare(a.Arrived, b.Arrived)
	}
	return cmp.Compare(a.ID(), b.ID())
}

// workConserve hands residual port bandwidth to the CoFlows that
// missed all-or-none admission, in their queue order (§4.2 D4): each
// flow gets min(sender residual, receiver residual), outside
// all-or-none, so otherwise-idle ports speed CoFlows up without
// pushing anyone back. Most missed CoFlows find every port they occupy
// drawn down by then: one whose port signature has no open egress or no
// open ingress port is passed over without asking its flows, and one
// whose grants close the last of either is left there. Within a CoFlow,
// once a position's receiver is closed, the positions right after it
// with the same receiver are passed over too: the trace formats write a
// CoFlow's flows reducer-major (trace.Parse, trace.Synthesize), one run
// of mappers per reducer, so that skips the rest of the run. Residuals
// only fall within a call, so none of the three skips a flow that could
// get anything, and the grants come in the order the flow-by-flow walk
// made them. The walk reads the CoFlow's compact (src, dst) view and
// touches a flow only to grant it.
func (s *Saath) workConserve(fab *fabric.Fabric, missed []*coflow.CoFlow, alloc *sched.RateVec) {
	const eps = 1e-3
	for _, c := range missed {
		sig := s.cindex.Signature(c)
		if !fab.OpenEnds(sig) {
			continue
		}
		ports := c.SendablePorts()
		for i := 0; i < len(ports); i++ {
			src, dst := coflow.PortID(ports[i].Src), coflow.PortID(ports[i].Dst)
			if float64(fab.IngressFree(dst)) > eps {
				r := fab.PathFree(src, dst)
				if float64(r) <= eps {
					continue // the sender is closed
				}
				f := c.SendableFlows()[i]
				alloc.Add(f.Idx, r)
				fab.Allocate(src, dst, r)
				s.recordAllocation(c, f, alloc.Rate(f.Idx))
				if !fab.OpenEnds(sig) {
					break
				}
				if float64(fab.IngressFree(dst)) > eps {
					continue
				}
			}
			// The receiver is closed: pass over the rest of its run.
			for d := ports[i].Dst; i+1 < len(ports) && ports[i+1].Dst == d; {
				i++
			}
		}
	}
}
