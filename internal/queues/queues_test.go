package queues

import (
	"math"
	"testing"
	"testing/quick"

	"saath/internal/coflow"
)

func TestDefaultMatchesPaper(t *testing.T) {
	c := Default()
	if c.NumQueues != 10 || c.StartThreshold != 10*coflow.MB || c.Growth != 10 {
		t.Fatalf("defaults = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{NumQueues: 0, StartThreshold: 1, Growth: 2},
		{NumQueues: 2, StartThreshold: 0, Growth: 2},
		{NumQueues: 2, StartThreshold: 1, Growth: 1},
		{NumQueues: 2, StartThreshold: 1, Growth: 0.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestThresholdsGrowExponentially(t *testing.T) {
	c := Default()
	if got := c.HiThreshold(0); got != 10*coflow.MB {
		t.Fatalf("Q^hi_0 = %d", got)
	}
	if got := c.HiThreshold(1); got != 100*coflow.MB {
		t.Fatalf("Q^hi_1 = %d", got)
	}
	if got := c.HiThreshold(c.NumQueues - 1); got != math.MaxInt64 {
		t.Fatalf("last queue threshold = %d, want inf", got)
	}
	if got := c.LoThreshold(0); got != 0 {
		t.Fatalf("Q^lo_0 = %d", got)
	}
	if got := c.LoThreshold(2); got != c.HiThreshold(1) {
		t.Fatal("Q^lo_q != Q^hi_{q-1}")
	}
	if got := c.HiThreshold(-1); got != 0 {
		t.Fatalf("negative queue threshold = %d", got)
	}
}

func TestThresholdOverflowClamped(t *testing.T) {
	c := Config{NumQueues: 100, StartThreshold: coflow.TB, Growth: 32}
	if got := c.HiThreshold(50); got != math.MaxInt64 {
		t.Fatalf("huge threshold = %d, want clamp", got)
	}
}

func TestQueueForBytes(t *testing.T) {
	c := Default()
	cases := []struct {
		b coflow.Bytes
		q int
	}{
		{0, 0},
		{10*coflow.MB - 1, 0},
		{10 * coflow.MB, 1},
		{99 * coflow.MB, 1},
		{100 * coflow.MB, 2},
		{coflow.TB, 6}, // 1 TiB sits just above Q^hi_5 = 10MiB·10^5 -> q=6
		{math.MaxInt64, c.NumQueues - 1},
	}
	for _, tc := range cases {
		if got := c.Ladder().QueueForBytes(tc.b); got != tc.q {
			t.Errorf("QueueForBytes(%d) = %d, want %d", tc.b, got, tc.q)
		}
	}
}

func TestQueueForPerFlowMatchesFig5(t *testing.T) {
	// Fig. 5: queue threshold 200MB, CoFlow with 100 flows has a
	// per-flow threshold of 2MB.
	c := Config{NumQueues: 3, StartThreshold: 200 * coflow.MB, Growth: 10}
	if got := c.Ladder().QueueForPerFlow(2*coflow.MB-1, 100); got != 0 {
		t.Fatalf("below per-flow share: q=%d", got)
	}
	if got := c.Ladder().QueueForPerFlow(2*coflow.MB+1, 100); got != 1 {
		t.Fatalf("above per-flow share: q=%d", got)
	}
}

func TestQueueForPerFlowWidthOne(t *testing.T) {
	c := Default()
	// Width 1 degenerates to the total-bytes rule.
	f := func(raw uint32) bool {
		b := coflow.Bytes(raw) * coflow.KB
		return c.Ladder().QueueForPerFlow(b, 1) == c.Ladder().QueueForBytes(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Ladder().QueueForPerFlow(coflow.MB, 0); got != c.Ladder().QueueForBytes(coflow.MB) {
		t.Fatal("width 0 should clamp to 1")
	}
}

func TestPerFlowDemotesFasterProperty(t *testing.T) {
	// Property (§3 idea 2): for the same maximum per-flow progress,
	// wider CoFlows never sit in a *higher*-priority queue than
	// narrower ones.
	c := Default()
	f := func(rawSent uint16, rawW uint8) bool {
		sent := coflow.Bytes(rawSent) * 100 * coflow.KB
		w := int(rawW%100) + 1
		return c.Ladder().QueueForPerFlow(sent, w+1) >= c.Ladder().QueueForPerFlow(sent, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueMonotoneInBytes(t *testing.T) {
	c := Default()
	f := func(a, b uint32) bool {
		x, y := coflow.Bytes(a)*coflow.KB, coflow.Bytes(b)*coflow.KB
		if x > y {
			x, y = y, x
		}
		return c.Ladder().QueueForBytes(x) <= c.Ladder().QueueForBytes(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinResidence(t *testing.T) {
	c := Default()
	rate := coflow.Rate(10 * 1024 * 1024) // 10 MiB/s
	// Queue 0 span = 10MB -> 1s.
	if got := c.Ladder().MinResidence(0, rate); got != coflow.Second {
		t.Fatalf("residence q0 = %v", got)
	}
	// Queue 1 span = 90MB -> 9s.
	if got := c.Ladder().MinResidence(1, rate); got != 9*coflow.Second {
		t.Fatalf("residence q1 = %v", got)
	}
	// Last queue extrapolates; must be positive and larger than q1's.
	last := c.Ladder().MinResidence(c.NumQueues-1, rate)
	if last <= c.Ladder().MinResidence(1, rate) {
		t.Fatalf("last-queue residence = %v", last)
	}
	if got := c.Ladder().MinResidence(0, 0); got != 0 {
		t.Fatalf("zero-rate residence = %v", got)
	}
}

// TestLadderMatchesFormula pins the precomputed ladder against the
// closed-form thresholds it replaces on the hot path: every placement
// and residence must be what evaluating S·E^q per call would give.
func TestLadderMatchesFormula(t *testing.T) {
	configs := []Config{
		Default(),
		{NumQueues: 1, StartThreshold: coflow.MB, Growth: 2},
		{NumQueues: 3, StartThreshold: 200 * coflow.MB, Growth: 10},
		{NumQueues: 8, StartThreshold: 100, Growth: 1.5},
		{NumQueues: 40, StartThreshold: coflow.GB, Growth: 10}, // upper rungs clamp at MaxInt64
	}
	rate := coflow.Rate(10 * 1024 * 1024)
	for _, c := range configs {
		l := c.Ladder()
		// The formula, as the per-call implementation evaluated it.
		forBytes := func(b coflow.Bytes) int {
			for q := 0; q < c.NumQueues-1; q++ {
				if b < c.HiThreshold(q) {
					return q
				}
			}
			return c.NumQueues - 1
		}
		forPerFlow := func(m coflow.Bytes, w int) int {
			scaled := float64(m) * float64(w)
			for q := 0; q < c.NumQueues-1; q++ {
				if scaled < float64(c.HiThreshold(q)) {
					return q
				}
			}
			return c.NumQueues - 1
		}
		residence := func(q int) coflow.Time {
			var span coflow.Bytes
			if q >= c.NumQueues-1 {
				hi := float64(c.StartThreshold) * math.Pow(c.Growth, float64(c.NumQueues-1))
				span = coflow.Bytes(hi - float64(c.LoThreshold(c.NumQueues-1)))
			} else {
				span = c.HiThreshold(q) - c.LoThreshold(q)
			}
			if span <= 0 {
				span = c.StartThreshold
			}
			return rate.TimeToSend(span)
		}
		for q := -1; q <= c.NumQueues+1; q++ {
			if got, want := l.MinResidence(q, rate), residence(q); got != want {
				t.Errorf("%+v: MinResidence(%d) = %v, formula %v", c, q, got, want)
			}
			// Probe each rung at, just below and just above its threshold.
			hi := c.HiThreshold(q)
			for _, b := range []coflow.Bytes{hi - 1, hi, hi + 1, hi / 3} {
				if hi == math.MaxInt64 && b < 0 {
					continue // hi+1 overflowed
				}
				if got, want := l.QueueForBytes(b), forBytes(b); got != want {
					t.Errorf("%+v: QueueForBytes(%d) = %d, formula %d", c, b, got, want)
				}
				for _, w := range []int{1, 7, 100} {
					if got, want := l.QueueForPerFlow(b/coflow.Bytes(w), w), forPerFlow(b/coflow.Bytes(w), w); got != want {
						t.Errorf("%+v: QueueForPerFlow(%d,%d) = %d, formula %d", c, b/coflow.Bytes(w), w, got, want)
					}
				}
			}
		}
	}
}
