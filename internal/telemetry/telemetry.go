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
// and stores them in bounded memory: fixed-capacity ring buffers for
// the exact tail of each series plus deterministic downsampling
// reservoirs (seeded from the job identity) covering the whole run.
// Million-interval simulations therefore stay flat on RSS, and sweep
// exports stay byte-identical at any worker count.
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
// leave the rest zero for defaults.
type Spec struct {
	// Enabled turns collection on. A disabled spec builds no probe.
	Enabled bool

	// Stride samples every Nth scheduling interval (<=1: every
	// interval). Striding bounds collection cost on long runs; it is
	// keyed off the interval index, so it is deterministic.
	Stride int

	// RingCap bounds each series' exact-tail ring buffer (default 256).
	RingCap int

	// ReservoirCap bounds each series' whole-run downsampling
	// reservoir (default 256).
	ReservoirCap int

	// ProgressCoFlows bounds the number of per-CoFlow progress series
	// (the first N admitted CoFlows are tracked; default 4, negative
	// disables).
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
	if s.RingCap <= 0 {
		s.RingCap = 256
	}
	if s.ReservoirCap <= 0 {
		s.ReservoirCap = 256
	}
	if s.ProgressCoFlows == 0 {
		s.ProgressCoFlows = 4
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
	// by scanning it: the cap is a handful (default 4), cheaper than
	// hashing every active CoFlow every interval.
	progress     []progressEntry
	intervals    int64 // intervals observed (pre-stride)
	sampled      int64 // intervals recorded (post-stride)
	egOcc, inOcc []int // per-port scratch, reused

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

// Series returns the named series, or nil.
func (s *Suite) Series(name string) *Series {
	for _, sr := range s.order {
		if sr.name == name {
			return sr
		}
	}
	return nil
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
	// (sender) and ingress (receiver) port, plus total queued bytes and
	// head-of-line blocking (CoFlows with sendable flows but no rate).
	if cap(s.egOcc) < iv.NumPorts {
		s.egOcc = make([]int, iv.NumPorts) //saath:alloc-ok sized once, on the first interval
		s.inOcc = make([]int, iv.NumPorts) //saath:alloc-ok sized once, on the first interval
	}
	eg, in := s.egOcc[:iv.NumPorts], s.inOcc[:iv.NumPorts]
	for i := range eg {
		eg[i], in[i] = 0, 0
	}
	var queuedBytes coflow.Bytes
	blocked := 0
	for _, c := range iv.Active {
		flows := c.SendableFlows()
		var granted float64
		for _, f := range flows {
			eg[f.Src]++
			in[f.Dst]++
			queuedBytes += f.Remaining()
			if r, ok := iv.Alloc.Get(f.Idx); ok {
				granted += float64(r)
			}
		}
		if len(flows) > 0 && granted <= 0 {
			blocked++
		}
	}
	egMean, egMax := busyStats(eg, s.hEgress)
	inMean, inMax := busyStats(in, s.hIngress)
	if s.heatEg != nil {
		s.heatEg.Observe(eg)
		s.heatIn.Observe(in)
	}

	f := &s.fixed
	f.active.Record(now, float64(len(iv.Active)))
	f.admitted.Record(now, float64(iv.Admitted))
	f.completed.Record(now, float64(iv.Completed))
	f.egressUtil.Record(now, iv.Utilization())
	f.egQueueMean.Record(now, egMean)
	f.egQueueMax.Record(now, egMax)
	f.inQueueMean.Record(now, inMean)
	f.inQueueMax.Record(now, inMax)
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

	// Contention histogram: k_c per active CoFlow, the LCoF ordering
	// signal (§3 idea 3), maintained incrementally and fed in the
	// deterministic Active order.
	s.cindex.Sync(iv.Active)
	for _, c := range iv.Active {
		s.hContention.Add(float64(s.cindex.K(c)))
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

// busyStats feeds every busy port's occupancy into h and returns the
// mean over busy ports and the max over all ports. Idle ports are
// excluded from the mean and histogram so sparse clusters do not drown
// the contention signal in zeros.
func busyStats(occ []int, h *Histogram) (mean, max float64) {
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
		h.Add(float64(n))
	}
	if busy > 0 {
		mean = float64(sum) / float64(busy)
	}
	return mean, max
}

func progressName(id coflow.CoFlowID) string {
	return ProgressPrefix + strconv.FormatInt(int64(id), 10)
}
