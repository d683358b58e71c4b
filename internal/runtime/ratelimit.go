package runtime

import (
	"time"

	"saath/internal/coflow"
)

// tokenBucket is the coordinator's admission-control front: tokens are
// coflows, accruing at rate per second up to burst, and a registration
// that finds none is rejected, not queued (TryTake). It refills on the
// virtual time each take is made at, so its decisions are a function of
// the arrival times alone.
type tokenBucket struct {
	rate   float64 // units per second
	tokens float64
	burst  float64
	last   coflow.Time
}

// newAdmissionBucket creates a bucket of rate units/second, full at
// virtual time 0 (so the first burst of arrivals is admitted).
func newAdmissionBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, tokens: burst, burst: burst}
}

// TryTake consumes n units if the budget accumulated by virtual time now
// covers them, without blocking: a coflow arriving past the configured
// rate is rejected, not queued. A now before the last take refills
// nothing.
func (b *tokenBucket) TryTake(n int, now coflow.Time) bool {
	if now > b.last {
		// Duration.Seconds, not a float64 division: for gaps over a
		// second the two can differ in the last bit, and every pinned
		// admission decision was taken with the former.
		b.tokens += b.rate * (time.Duration(now-b.last) * time.Microsecond).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return true
	}
	return false
}
