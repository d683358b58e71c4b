package runtime

import (
	"slices"
	"time"
)

// scheduleStats summarizes the coordinator's wall-clock compute cost,
// the quantity Table 2 reports. Samples are held in a fixed-capacity
// reservoir (Vitter's algorithm R with a deterministic xorshift
// stream), so memory stays bounded on arbitrarily long runs while P90
// remains a faithful estimate.
type scheduleStats struct {
	calls   int
	total   time.Duration
	max     time.Duration
	samples []time.Duration
	rng     uint64
}

// schedSampleCap bounds the P90 sample reservoir.
const schedSampleCap = 2048

// record accumulates one Schedule call's wall-clock cost.
func (s *scheduleStats) record(d time.Duration) {
	s.calls++
	s.total += d
	if d > s.max {
		s.max = d
	}
	if len(s.samples) < schedSampleCap {
		if cap(s.samples) < schedSampleCap {
			// one-time reservoir preallocation
			s.samples = append(make([]time.Duration, 0, schedSampleCap), s.samples...)
		}
		s.samples = append(s.samples, d)
		return
	}
	// Reservoir replacement. Wall-clock timings are measurement noise
	// already, so a deterministic pseudo-random stream is fine and keeps
	// the coordinator rand-free.
	if s.rng == 0 {
		s.rng = 0x9e3779b97f4a7c15
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if j := s.rng % uint64(s.calls); j < schedSampleCap {
		s.samples[j] = d
	}
}

// mean returns the average schedule computation time.
func (s *scheduleStats) mean() time.Duration {
	if s.calls == 0 {
		return 0
	}
	return s.total / time.Duration(s.calls)
}

// p90 returns the 90th-percentile schedule computation time over the
// retained sample reservoir.
func (s *scheduleStats) p90() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	cp := slices.Clone(s.samples)
	slices.Sort(cp)
	return cp[int(0.9*float64(len(cp)-1))]
}
