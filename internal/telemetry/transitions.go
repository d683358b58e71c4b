package telemetry

import (
	"saath/internal/coflow"
	"saath/internal/queues"
)

// This file holds the Fig. 4-style spatial consumers: the
// queue-transition tracker (how fast CoFlows move down the
// priority-queue ladder, the dynamic the paper's §2–§3 analysis is
// built on) and the per-port occupancy heatmap (where in the cluster
// the queues build). Both are bounded-memory observers — dense
// slices keyed by CoFlow.Idx / PortID, fixed bucket sets — and both
// are nil unless enabled in the Spec, so the default suite (and the
// engine's no-probe path) pays nothing for them.

// queueTracker places every active CoFlow into the configured
// priority-queue ladder each sampled interval and counts transitions
// against the previous placement. Demotions (toward a higher queue
// index, i.e. lower priority) are the normal drift as bytes
// accumulate; promotions only happen when sent bytes shrink — a
// restart after a node failure — making the promotion series a direct
// failure-churn signal.
type queueTracker struct {
	ladder  *queues.Ladder
	perFlow bool
	level   *Histogram

	// prevQ/prevID are the previous placement, densely keyed by
	// CoFlow.Idx. Index slots are recycled by the engine's IndexSpace,
	// so a slot only counts as "seen" while its recorded ID matches.
	prevQ  []int16
	prevID []coflow.CoFlowID
}

func newQueueTracker(cfg queues.Config, perFlow bool) *queueTracker {
	bounds := make([]float64, cfg.NumQueues)
	for i := range bounds {
		bounds[i] = float64(i)
	}
	return &queueTracker{ladder: cfg.Ladder(), perFlow: perFlow, level: NewHistogram(HistQueueLevel, bounds)}
}

// place returns the CoFlow's current queue under the tracker's rule.
func (qt *queueTracker) place(c *coflow.CoFlow) int {
	if qt.perFlow {
		return qt.ladder.QueueForPerFlow(c.MaxSent(), c.Width())
	}
	return qt.ladder.QueueForBytes(c.TotalSent())
}

// observe places every active CoFlow and returns this interval's
// promotion/demotion counts. Iteration follows the deterministic
// Active order, so counts are reproducible at any parallelism.
func (qt *queueTracker) observe(active []*coflow.CoFlow) (promotions, demotions int) {
	for _, c := range active {
		q := qt.place(c)
		qt.level.Add(float64(q))
		idx := c.Idx
		if idx < 0 {
			continue // unindexed (hand-built) CoFlows are not tracked
		}
		if idx >= len(qt.prevQ) {
			qt.grow(idx + 1)
		}
		if qt.prevQ[idx] < 0 || qt.prevID[idx] != c.ID() {
			// First sight of this CoFlow (or a recycled index slot):
			// entering the ladder is not a transition.
			qt.prevID[idx] = c.ID()
			qt.prevQ[idx] = int16(q)
			continue
		}
		if prev := int(qt.prevQ[idx]); q > prev {
			demotions++
		} else if q < prev {
			promotions++
		}
		qt.prevQ[idx] = int16(q)
	}
	return promotions, demotions
}

// grow makes room for CoFlow indices below n: amortized growth when the
// live CoFlow index space widens, never at steady state.
func (qt *queueTracker) grow(n int) {
	old := len(qt.prevQ)
	qt.prevQ, qt.prevID = coflow.Grow(qt.prevQ, n), coflow.Grow(qt.prevID, n)
	for i := old; i < n; i++ {
		qt.prevQ[i] = -1
	}
}

// DefaultOccupancyBounds suits per-port queue-occupancy distributions:
// an idle bucket plus powers of two up to 32 and an overflow bucket.
func DefaultOccupancyBounds() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32}
}

// Heatmap accumulates a per-port histogram of an integer occupancy
// signal: one bucket increment per port per observation, plus exact
// per-port sums and maxima. Memory is ports × buckets, constant in the
// number of observations — the paper's Fig. 4-style "where do queues
// build" view in bounded space.
type Heatmap struct {
	name      string
	bounds    []float64
	counts    [][]int64 // [port][bucket]
	overflow  []int64
	sum       []int64
	max       []int64
	intervals int64
}

// NewHeatmap returns a heatmap with the given ascending bucket bounds
// (nil: DefaultOccupancyBounds).
func NewHeatmap(name string, bounds []float64) *Heatmap {
	if len(bounds) == 0 {
		bounds = DefaultOccupancyBounds()
	}
	return &Heatmap{name: name, bounds: append([]float64(nil), bounds...)}
}

// ObserveN records n intervals of the same per-port occupancy vector.
// The first observation sizes the port dimension; occ must keep its
// length for the rest of the run (one simulation, one fabric).
func (h *Heatmap) ObserveN(occ []int, n int64) {
	if n <= 0 {
		return
	}
	h.intervals += n
	if len(h.counts) < len(occ) {
		h.growPorts(len(occ))
	}
	for p, v := range occ {
		h.sum[p] += int64(v) * n
		if int64(v) > h.max[p] {
			h.max[p] = int64(v)
		}
		placed := false
		for i, b := range h.bounds {
			if float64(v) <= b {
				h.counts[p][i] += n
				placed = true
				break
			}
		}
		if !placed {
			h.overflow[p] += n
		}
	}
}

// growPorts sizes the port dimension to n ports, once, on the first
// observation.
func (h *Heatmap) growPorts(n int) {
	old := len(h.counts)
	h.counts = coflow.Grow(h.counts, n)
	for p := old; p < n; p++ {
		h.counts[p] = make([]int64, len(h.bounds))
	}
	h.overflow, h.sum, h.max = coflow.Grow(h.overflow, n), coflow.Grow(h.sum, n), coflow.Grow(h.max, n)
}

// Export dumps the heatmap.
func (h *Heatmap) Export() HeatmapDump {
	d := HeatmapDump{
		Name:      h.name,
		Bounds:    append([]float64(nil), h.bounds...),
		Intervals: h.intervals,
		Ports:     make([]HeatmapPortDump, len(h.counts)),
	}
	for p := range h.counts {
		d.Ports[p] = HeatmapPortDump{
			Port:     p,
			Counts:   append([]int64(nil), h.counts[p]...),
			Overflow: h.overflow[p],
			Sum:      h.sum[p],
			Max:      h.max[p],
		}
	}
	return d
}
