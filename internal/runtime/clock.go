package runtime

import (
	"sync"
	"time"
)

// VirtualClock is the coordinator's time source, moved by the driver.
// Study outputs read only it, so they are a pure function of the
// workload — byte-identical at any parallelism or sharding — while
// wall-clock scheduling-latency measurements stay out-of-band (see
// ScheduleLatency). The zero value starts at the Unix epoch; Set and
// Advance move it. Safe for concurrent use, though drivers are
// single-threaded per coordinator.
type VirtualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewVirtualClock returns a clock frozen at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{t: start}
}

// Now returns the current virtual time.
func (v *VirtualClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.t
}

// Set jumps the clock to t. Moving backwards is allowed (the token
// bucket and coordinator only ever take non-negative deltas).
func (v *VirtualClock) Set(t time.Time) {
	v.mu.Lock()
	v.t = t
	v.mu.Unlock()
}

// Advance moves the clock forward by d.
func (v *VirtualClock) Advance(d time.Duration) {
	v.mu.Lock()
	v.t = v.t.Add(d)
	v.mu.Unlock()
}
