package runtime

import (
	"testing"
	"time"
)

// TestScheduleStatsReservoir: the latency recorder's sums are exact, its
// memory stays at the reservoir's cap however long the coordinator
// runs, and P90 stays an estimate of the stream it saw.
func TestScheduleStatsReservoir(t *testing.T) {
	var s scheduleStats
	if s.mean() != 0 || s.p90() != 0 {
		t.Fatal("empty recorder reports a latency")
	}
	const n = 10 * schedSampleCap
	for i := 1; i <= n; i++ {
		s.record(time.Duration(i) * time.Microsecond)
	}
	if s.calls != n || s.max != n*time.Microsecond || s.mean() != (n+1)*time.Microsecond/2 {
		t.Fatalf("calls %d, max %v, mean %v", s.calls, s.max, s.mean())
	}
	if len(s.samples) != schedSampleCap || cap(s.samples) != schedSampleCap {
		t.Fatalf("reservoir holds %d samples (cap %d), want %d", len(s.samples), cap(s.samples), schedSampleCap)
	}
	if p := s.p90(); p < n*8/10*time.Microsecond || p > s.max {
		t.Errorf("p90 = %v over a uniform 1µs..%v stream", p, s.max)
	}
}
