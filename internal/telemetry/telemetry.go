// Package telemetry streams per-interval time-series metrics out of
// the simulation engine. The paper's story is about *where* contention
// lives — queue buildup at ports, head-of-line blocking across a
// CoFlow's flows — and end-of-run aggregates cannot show it; this
// package makes the dynamics observable.
//
// The engine calls every attached Probe once per scheduling interval
// with an Interval observation (active set, allocation, fabric
// dimensions). The standard Suite probe derives the metrics the
// paper's narrative needs — per-port queue occupancy, fabric
// utilization, active/admitted/completed CoFlow counts, per-CoFlow
// progress, head-of-line blocking, and contention (k_c) histograms —
// and stores them in bounded memory. Each series keeps exact scalars
// (count, mean, max, last), all the derived tables read. Only when a raw
// export asks (Spec) does it keep points too — a fixed-capacity ring of
// the exact tail and a deterministic downsampling reservoir (seeded from
// the job identity) over the whole run — and per-CoFlow progress series.
// Million-interval simulations therefore stay flat on RSS, and exports
// stay byte-identical at any worker count.
//
// An interval costs what changed since the last one. Port occupancy,
// its busy-port statistics and k_c depend only on which flows of the
// active CoFlows are sendable, between which ports, so the Suite derives
// them again only when some Active slot's CoFlow or mutation epoch moved
// (sched.SlotStamps); an interval that finds them standing counts one
// more repeat of the vectors it has, and the repeats reach the
// occupancy and contention histograms and the heatmaps in one batch
// (Histogram.AddN, Heatmap.ObserveN) before the next change and in
// Metrics. Every batched value is an integer, so a batch of n adds what
// n single additions would, bit for bit. What reads bytes sent or the
// allocation — queued bytes, blocked CoFlows, every series, queue
// transitions and progress — is taken every sampled interval.
// TestBatchedSuiteMatchesPerInterval holds the Suite to one that takes
// everything every interval.
package telemetry

import (
	"strconv"

	"saath/internal/coflow"
	"saath/internal/queues"
	"saath/internal/sched"
)

// Interval is the engine's observation of one scheduling round, handed
// to probes after the schedule is computed and validated but before
// bytes move. The Active slice and Alloc map are owned by the engine
// and only valid for the duration of the Observe call; probes must
// copy anything they retain.
type Interval struct {
	// Index is the 0-based scheduling round.
	Index int
	// Now is the interval's start time; Delta its length.
	Now   coflow.Time
	Delta coflow.Time

	// NumPorts and PortRate describe the fabric.
	NumPorts int
	PortRate coflow.Rate

	// Active lists the live CoFlows in arrival order.
	Active []*coflow.CoFlow
	// Alloc is the schedule for this interval: the dense per-flow rate
	// vector, keyed by Flow.Idx. It may be nil (nothing scheduled).
	Alloc *sched.RateVec

	// AllocatedRate is the total egress rate handed out this interval,
	// accumulated by the engine in deterministic flow order (the PR 1
	// determinism fix: sorted, not map-order, float accumulation).
	AllocatedRate float64

	// Admitted counts CoFlows released to the scheduler so far;
	// Completed counts CoFlows retired so far.
	Admitted  int
	Completed int
}

// Capacity returns the aggregate egress capacity of the fabric.
func (iv *Interval) Capacity() float64 {
	return float64(iv.PortRate) * float64(iv.NumPorts)
}

// Utilization returns the fraction of aggregate egress capacity the
// interval's schedule hands out.
func (iv *Interval) Utilization() float64 {
	if c := iv.Capacity(); c > 0 {
		return iv.AllocatedRate / c
	}
	return 0
}

// Probe receives one observation per scheduling interval. Observe is
// called synchronously from the engine's run loop, between scheduling
// and byte movement. Implementations need no locking (one engine, one
// goroutine) but must not retain the Interval's slices or maps.
type Probe interface {
	Observe(iv *Interval)
}

// Spec configures a Suite. The zero value is disabled; set Enabled and
// leave the rest zero for what the derived tables read. Points and
// progress series are for a raw export, and collected only when asked.
type Spec struct {
	// Enabled turns collection on. A disabled spec builds no probe.
	Enabled bool

	// Stride samples every Nth scheduling interval (<=1: every
	// interval). Striding bounds collection cost on long runs; it is
	// keyed off the interval index, so it is deterministic.
	Stride int

	// RingCap bounds each series' exact-tail ring buffer (zero: none).
	RingCap int

	// ReservoirCap bounds each series' whole-run downsampling
	// reservoir (zero: none, and no RNG).
	ReservoirCap int

	// ProgressCoFlows bounds the number of per-CoFlow progress series
	// (the first N admitted CoFlows are tracked; zero: none).
	ProgressCoFlows int

	// Seed drives the downsampling reservoirs. Sweep jobs derive it
	// from the job identity so exported metrics are reproducible and
	// independent of worker interleaving.
	Seed int64

	// QueueTransitions enables the Fig. 4-style queue-transition
	// tracker: per-interval counts of CoFlow promotions/demotions
	// between the priority queues of TransitionQueues, plus the
	// queue-level histogram. Memory is bounded by the live CoFlow
	// index space.
	QueueTransitions bool

	// TransitionQueues is the priority-queue ladder the tracker places
	// CoFlows into (zero value: queues.Default()). Pass the
	// scheduler's own ladder to observe the exact queues it schedules
	// from.
	TransitionQueues queues.Config

	// PerFlowPlacement selects Saath's per-flow threshold rule (Eq. 1)
	// for transition placement; false uses Aalo's total-bytes rule.
	PerFlowPlacement bool

	// PortHeatmap enables the per-port occupancy heatmaps: for every
	// egress and ingress port, a bounded histogram of its sendable-flow
	// occupancy across sampled intervals.
	PortHeatmap bool
}

func (s Spec) withDefaults() Spec {
	if s.Stride < 1 {
		s.Stride = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.QueueTransitions {
		// Normalize the ladder field by field (mirroring
		// sched.Params.Normalize): a partially specified config — say
		// NumQueues set but StartThreshold left zero — would otherwise
		// place every CoFlow in the last queue forever and silently
		// produce degenerate transition telemetry.
		def := queues.Default()
		if s.TransitionQueues.NumQueues < 1 {
			s.TransitionQueues.NumQueues = def.NumQueues
		}
		if s.TransitionQueues.StartThreshold <= 0 {
			s.TransitionQueues.StartThreshold = def.StartThreshold
		}
		if s.TransitionQueues.Growth <= 1 {
			s.TransitionQueues.Growth = def.Growth
		}
	}
	return s
}

// Canonical series names recorded by the Suite.
const (
	SeriesActiveCoFlows    = "active_coflows"
	SeriesAdmittedCoFlows  = "admitted_coflows"
	SeriesCompletedCoFlows = "completed_coflows"
	SeriesEgressUtil       = "egress_utilization"
	SeriesEgressQueueMean  = "egress_queue_mean"
	SeriesEgressQueueMax   = "egress_queue_max"
	SeriesIngressQueueMean = "ingress_queue_mean"
	SeriesIngressQueueMax  = "ingress_queue_max"
	SeriesQueuedBytes      = "queued_bytes"
	SeriesBlockedCoFlows   = "blocked_coflows"
	// SeriesQueuePromotions / SeriesQueueDemotions count per-interval
	// CoFlow movements between priority queues (Spec.QueueTransitions).
	SeriesQueuePromotions = "queue_promotions"
	SeriesQueueDemotions  = "queue_demotions"
	// ProgressPrefix prefixes per-CoFlow progress series ("progress/<id>").
	ProgressPrefix = "progress/"
)

// Canonical histogram names recorded by the Suite.
const (
	HistEgressOccupancy  = "egress_queue_occupancy"
	HistIngressOccupancy = "ingress_queue_occupancy"
	HistContention       = "coflow_contention"
	// HistQueueLevel is the distribution of priority-queue levels over
	// (CoFlow, sampled interval) pairs (Spec.QueueTransitions).
	HistQueueLevel = "queue_level"
)

// Canonical heatmap names recorded by the Suite (Spec.PortHeatmap).
const (
	HeatmapEgressOccupancy  = "egress_port_occupancy"
	HeatmapIngressOccupancy = "ingress_port_occupancy"
)

// progressEntry tracks one CoFlow's progress series.
type progressEntry struct {
	id     coflow.CoFlowID
	series *Series
	total  coflow.Bytes
}

// fixedSeries are the streams every Suite records each sampled
// interval, held as fields so Observe reaches them without a lookup.
// promotions/demotions are nil unless Spec.QueueTransitions.
type fixedSeries struct {
	active, admitted, completed *Series
	egressUtil                  *Series
	egQueueMean, egQueueMax     *Series
	inQueueMean, inQueueMax     *Series
	queuedBytes, blocked        *Series
	promotions, demotions       *Series
}

// Suite is the standard collector set. It implements Probe; attach it
// to a simulation via sim.Config.Probes and read the result with
// Metrics. A Suite observes exactly one run — do not share one across
// simulations.
type Suite struct {
	spec Spec

	order []*Series // stable export order
	fixed fixedSeries

	hEgress     *Histogram
	hIngress    *Histogram
	hContention *Histogram

	// progress holds the first Spec.ProgressCoFlows admitted CoFlows in
	// admission order (the export order). Observe finds a CoFlow's entry
	// by scanning it: the cap is a handful (saath-sim asks for 4),
	// cheaper than hashing every active CoFlow every interval.
	progress  []progressEntry
	intervals int64 // intervals observed (pre-stride)
	sampled   int64 // intervals recorded (post-stride)

	// The occupancy of the last sampled interval at which some Active
	// slot moved (slots): sendable flows per egress and ingress port,
	// their busy-port mean and max, and k_c per Active slot. repeats
	// counts the sampled intervals since, that one included, not yet in
	// the histograms and heatmaps.
	slots                        sched.SlotStamps
	egOcc, inOcc                 []int
	egMean, egMax, inMean, inMax float64
	kc                           []int
	repeats                      int64

	// cindex maintains k_c incrementally across observations instead of
	// rebuilding the full port-occupancy map every sampled interval.
	cindex *sched.ContentionIndex

	// Fig. 4-style consumers, nil unless enabled in the spec.
	qt     *queueTracker
	heatEg *Heatmap
	heatIn *Heatmap
}

// NewSuite builds the standard collector set from spec (defaults
// applied). The spec's Enabled flag is not consulted — callers decide
// whether to construct a Suite at all.
func NewSuite(spec Spec) *Suite {
	spec = spec.withDefaults()
	s := &Suite{
		spec:        spec,
		hEgress:     NewHistogram(HistEgressOccupancy, nil),
		hIngress:    NewHistogram(HistIngressOccupancy, nil),
		hContention: NewHistogram(HistContention, nil),
		cindex:      sched.NewContentionIndex(),
	}
	// Declaration order is export order.
	f := &s.fixed
	f.active = s.addSeries(SeriesActiveCoFlows, "coflows")
	f.admitted = s.addSeries(SeriesAdmittedCoFlows, "coflows")
	f.completed = s.addSeries(SeriesCompletedCoFlows, "coflows")
	f.egressUtil = s.addSeries(SeriesEgressUtil, "fraction")
	f.egQueueMean = s.addSeries(SeriesEgressQueueMean, "flows/port")
	f.egQueueMax = s.addSeries(SeriesEgressQueueMax, "flows")
	f.inQueueMean = s.addSeries(SeriesIngressQueueMean, "flows/port")
	f.inQueueMax = s.addSeries(SeriesIngressQueueMax, "flows")
	f.queuedBytes = s.addSeries(SeriesQueuedBytes, "bytes")
	f.blocked = s.addSeries(SeriesBlockedCoFlows, "coflows")
	if spec.QueueTransitions {
		f.promotions = s.addSeries(SeriesQueuePromotions, "transitions")
		f.demotions = s.addSeries(SeriesQueueDemotions, "transitions")
		s.qt = newQueueTracker(spec.TransitionQueues, spec.PerFlowPlacement)
	}
	if spec.PortHeatmap {
		s.heatEg = NewHeatmap(HeatmapEgressOccupancy, nil)
		s.heatIn = NewHeatmap(HeatmapIngressOccupancy, nil)
	}
	return s
}

func (s *Suite) addSeries(name, unit string) *Series {
	sr := newSeries(name, unit, s.spec.RingCap, s.spec.ReservoirCap, s.spec.Seed)
	s.order = append(s.order, sr)
	return sr
}

// Observe implements Probe.
//
//saath:hotpath
func (s *Suite) Observe(iv *Interval) {
	s.intervals++
	if s.spec.Stride > 1 && iv.Index%s.spec.Stride != 0 {
		return
	}
	s.sampled++
	now := iv.Now

	// Per-port queue occupancy: sendable flows pending at each egress
	// (sender) and ingress (receiver) port, and k_c, taken afresh only
	// when the active CoFlows' flow sets moved.
	if !s.slots.Same(iv.Active) || len(s.egOcc) != iv.NumPorts {
		s.flush()
		s.occupy(iv)
	}
	s.repeats++

	// Total queued bytes and head-of-line blocking (CoFlows with
	// sendable flows but no rate) read Sent and the allocation, so they
	// are taken every sampled interval.
	var queuedBytes coflow.Bytes
	blocked := 0
	for _, c := range iv.Active {
		flows := c.SendableFlows()
		var granted float64
		for _, f := range flows {
			queuedBytes += f.Remaining()
			if r, ok := iv.Alloc.Get(f.Idx); ok {
				granted += float64(r)
			}
		}
		if len(flows) > 0 && granted <= 0 {
			blocked++
		}
	}

	f := &s.fixed
	f.active.Record(now, float64(len(iv.Active)))
	f.admitted.Record(now, float64(iv.Admitted))
	f.completed.Record(now, float64(iv.Completed))
	f.egressUtil.Record(now, iv.Utilization())
	f.egQueueMean.Record(now, s.egMean)
	f.egQueueMax.Record(now, s.egMax)
	f.inQueueMean.Record(now, s.inMean)
	f.inQueueMax.Record(now, s.inMax)
	f.queuedBytes.Record(now, float64(queuedBytes))
	f.blocked.Record(now, float64(blocked))

	// Queue transitions: place every CoFlow into the observed
	// priority-queue ladder and count movements since the previous
	// sampled interval (Fig. 4-style dynamics).
	if s.qt != nil {
		promotions, demotions := s.qt.observe(iv.Active)
		f.promotions.Record(now, float64(promotions))
		f.demotions.Record(now, float64(demotions))
	}

	// Per-CoFlow progress for the first N admitted CoFlows.
	if s.spec.ProgressCoFlows > 0 {
		for _, c := range iv.Active {
			e := s.progressFor(c)
			if e == nil {
				continue
			}
			frac := 1.0
			if e.total > 0 {
				frac = float64(c.TotalSent()) / float64(e.total)
			}
			e.series.Record(now, frac)
		}
	}
}

// occupy takes the occupancy of iv's active CoFlows afresh: the
// sendable flows at each egress and ingress port with their busy-port
// statistics, and k_c — the LCoF ordering signal (§3 idea 3),
// maintained incrementally — per Active slot.
func (s *Suite) occupy(iv *Interval) {
	if cap(s.egOcc) < iv.NumPorts {
		s.egOcc = make([]int, iv.NumPorts) // sized once, on the first interval
		s.inOcc = make([]int, iv.NumPorts) // sized once, on the first interval
	}
	eg, in := s.egOcc[:iv.NumPorts], s.inOcc[:iv.NumPorts]
	clear(eg)
	clear(in)
	for _, c := range iv.Active {
		for _, p := range c.SendablePorts() {
			eg[p.Src]++
			in[p.Dst]++
		}
	}
	s.egOcc, s.inOcc = eg, in
	s.egMean, s.egMax = busyStats(eg)
	s.inMean, s.inMax = busyStats(in)
	s.cindex.Sync(iv.Active)
	s.kc = s.kc[:0]
	for _, c := range iv.Active {
		s.kc = append(s.kc, s.cindex.K(c))
	}
}

// flush feeds the pending repeats of the last occupancy taken into the
// occupancy and contention histograms and the heatmaps, in one batch.
func (s *Suite) flush() {
	n := s.repeats
	if n == 0 {
		return
	}
	s.repeats = 0
	addBusy(s.hEgress, s.egOcc, n)
	addBusy(s.hIngress, s.inOcc, n)
	if s.heatEg != nil {
		s.heatEg.ObserveN(s.egOcc, n)
		s.heatIn.ObserveN(s.inOcc, n)
	}
	for _, k := range s.kc {
		s.hContention.AddN(float64(k), n)
	}
}

// progressFor returns c's progress entry, starting one while fewer than
// Spec.ProgressCoFlows CoFlows are tracked; nil for an untracked CoFlow.
func (s *Suite) progressFor(c *coflow.CoFlow) *progressEntry {
	id := c.ID()
	for i := range s.progress {
		if s.progress[i].id == id {
			return &s.progress[i]
		}
	}
	if len(s.progress) >= s.spec.ProgressCoFlows {
		return nil
	}
	s.progress = append(s.progress, progressEntry{
		id: id,
		series: newSeries(progressName(id), "fraction",
			s.spec.RingCap, s.spec.ReservoirCap, s.spec.Seed),
		total: c.Spec.TotalSize(),
	})
	return &s.progress[len(s.progress)-1]
}

// busyStats returns the mean occupancy over busy ports and the max over
// all ports. Idle ports are excluded from the mean (and, in addBusy,
// from the histograms) so sparse clusters do not drown the contention
// signal in zeros.
func busyStats(occ []int) (mean, max float64) {
	busy, sum := 0, 0
	for _, n := range occ {
		if n == 0 {
			continue
		}
		busy++
		sum += n
		if f := float64(n); f > max {
			max = f
		}
	}
	if busy > 0 {
		mean = float64(sum) / float64(busy)
	}
	return mean, max
}

// addBusy records every busy port's occupancy in h, n times over.
func addBusy(h *Histogram, occ []int, n int64) {
	for _, v := range occ {
		if v != 0 {
			h.AddN(float64(v), n)
		}
	}
}

func progressName(id coflow.CoFlowID) string {
	return ProgressPrefix + strconv.FormatInt(int64(id), 10)
}
