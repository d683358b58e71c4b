package runtime

import (
	"sync"
	"time"
)

// tokenBucket is the coordinator's admission-control front: tokens are
// coflows, accruing at rate per second up to burst, and a registration
// that finds none is rejected, not queued (TryTake). The time source is
// injectable, so decisions under a VirtualClock refill
// deterministically.
type tokenBucket struct {
	mu     sync.Mutex
	now    func() time.Time
	rate   float64 // units per second
	tokens float64
	burst  float64
	last   time.Time
}

// newAdmissionBucket creates a bucket of rate units/second with a full
// burst of initial budget (so the first burst of arrivals is admitted),
// driven by the given time source.
func newAdmissionBucket(rate, burst float64, now func() time.Time) *tokenBucket {
	return &tokenBucket{now: now, rate: rate, tokens: burst, burst: burst, last: now()}
}

func (b *tokenBucket) refillLocked(now time.Time) {
	dt := now.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += b.rate * dt
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// TryTake consumes n units if the accumulated budget covers them right
// now, without blocking: a coflow arriving past the configured rate is
// rejected, not queued.
func (b *tokenBucket) TryTake(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return true
	}
	return false
}
