// Package queues implements the logical priority-queue structure shared
// by Aalo and Saath (§4.1): K queues Q0..Q_{K-1} with exponentially
// growing thresholds Q^hi_{q+1} = E·Q^hi_q, Q^lo_0 = 0, Q^hi_{K-1} = ∞.
//
// Aalo demotes a CoFlow when its *total* bytes sent cross the
// threshold; Saath uses the per-flow fair share of the threshold
// (Eq. 1): a CoFlow of width N sits in queue q while
// Q^hi_{q-1} ≤ m_c·N ≤ Q^hi_q, where m_c is the maximum bytes sent by
// any single flow.
package queues

import (
	"fmt"
	"math"

	"saath/internal/coflow"
)

// Config describes one priority-queue ladder.
type Config struct {
	// NumQueues is K, the number of priority queues (paper default 10).
	NumQueues int
	// StartThreshold is S = Q^hi_0, the highest-priority queue's upper
	// threshold (paper default 10 MB).
	StartThreshold coflow.Bytes
	// Growth is E, the exponential threshold growth factor (default 10).
	Growth float64
}

// Default returns the paper's default parameters: K=10, S=10MB, E=10.
func Default() Config {
	return Config{NumQueues: 10, StartThreshold: 10 * coflow.MB, Growth: 10}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumQueues < 1 {
		return fmt.Errorf("queues: NumQueues=%d, need >=1", c.NumQueues)
	}
	if c.StartThreshold <= 0 {
		return fmt.Errorf("queues: StartThreshold=%d, need >0", c.StartThreshold)
	}
	if c.Growth <= 1 {
		return fmt.Errorf("queues: Growth=%v, need >1", c.Growth)
	}
	return nil
}

// HiThreshold returns Q^hi_q = S·E^q for q < K-1 and an effectively
// infinite value for the last queue.
func (c Config) HiThreshold(q int) coflow.Bytes {
	if q < 0 {
		return 0
	}
	if q >= c.NumQueues-1 {
		return math.MaxInt64
	}
	v := float64(c.StartThreshold) * math.Pow(c.Growth, float64(q))
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	return coflow.Bytes(v)
}

// LoThreshold returns Q^lo_q (= Q^hi_{q-1}; zero for q=0).
func (c Config) LoThreshold(q int) coflow.Bytes {
	if q <= 0 {
		return 0
	}
	return c.HiThreshold(q - 1)
}

// Ladder is a Config with its thresholds worked out once. Schedulers
// place every live CoFlow on the ladder every δ, so the exponentials
// behind HiThreshold are paid when the policy is built, not per
// CoFlow per interval. Build one with Config.Ladder.
type Ladder struct {
	hi   []coflow.Bytes // hi[q] = Q^hi_q, q < K-1
	span []coflow.Bytes // span[q]: threshold width MinResidence divides by the rate, q < K
}

// Ladder computes the threshold ladder of a valid Config. The values
// are HiThreshold's own, evaluated once per rung.
func (c Config) Ladder() *Ladder {
	k := max(c.NumQueues, 1)
	l := &Ladder{hi: make([]coflow.Bytes, k-1), span: make([]coflow.Bytes, k)}
	for q := range l.hi {
		l.hi[q] = c.HiThreshold(q)
		l.span[q] = c.HiThreshold(q) - c.LoThreshold(q)
	}
	// Unbounded last queue: extrapolate one more rung.
	top := float64(c.StartThreshold) * math.Pow(c.Growth, float64(k-1))
	l.span[k-1] = coflow.Bytes(top - float64(c.LoThreshold(k-1)))
	for q, s := range l.span {
		if s <= 0 {
			l.span[q] = c.StartThreshold
		}
	}
	return l
}

// QueueForBytes returns the queue whose [lo, hi) interval contains b —
// Aalo's total-bytes placement. CoFlows sit in q while b < Q^hi_q.
func (l *Ladder) QueueForBytes(b coflow.Bytes) int {
	for q, hi := range l.hi {
		if b < hi {
			return q
		}
	}
	return len(l.hi)
}

// QueueForPerFlow implements Saath's Eq. 1: the queue of a CoFlow of
// the given width whose largest flow has sent maxSent bytes. The queue
// threshold is split equally across the CoFlow's flows, so the CoFlow
// demotes as soon as any flow crosses its share.
func (l *Ladder) QueueForPerFlow(maxSent coflow.Bytes, width int) int {
	if width < 1 {
		width = 1
	}
	// m_c·N compared against Q^hi_q, guarding overflow for huge widths.
	scaled := float64(maxSent) * float64(width)
	for q, hi := range l.hi {
		if scaled < float64(hi) {
			return q
		}
	}
	return len(l.hi)
}

// MinResidence returns t, the minimum time a CoFlow must spend in
// queue q before it can cross to the next: the threshold span divided
// by the port rate. It anchors the starvation deadline d·C_q·t (§4.2
// D5). The last queue has no upper threshold; its residence is the
// span of the previous queue scaled by the growth factor.
func (l *Ladder) MinResidence(q int, rate coflow.Rate) coflow.Time {
	if rate <= 0 {
		return 0
	}
	return rate.TimeToSend(l.span[min(max(q, 0), len(l.span)-1)])
}
