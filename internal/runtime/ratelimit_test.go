package runtime

import (
	"sync"
	"testing"
	"time"
)

// fakeNow is a hand-cranked time source for deterministic bucket tests.
type fakeNow struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeNow) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeNow) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestTokenBucketRefill: tokens accrue at the configured rate and are
// spent by TryTake, all in fake time.
func TestTokenBucketRefill(t *testing.T) {
	fc := &fakeNow{t: time.Unix(0, 0)}
	b := newAdmissionBucket(100, 1000, fc.now) // 100 units/s
	if !b.TryTake(1000) {
		t.Fatal("a new bucket did not start full")
	}
	if b.TryTake(1) {
		t.Fatal("empty bucket granted a token")
	}
	fc.advance(100 * time.Millisecond) // +10 tokens
	if !b.TryTake(10) {
		t.Fatal("refill did not accrue 10 tokens over 100ms at rate 100/s")
	}
	if b.TryTake(1) {
		t.Fatal("budget was not spent by the previous take")
	}
}

// TestTokenBucketBurstCap: the bucket never holds more than burst, no
// matter how long it idles.
func TestTokenBucketBurstCap(t *testing.T) {
	fc := &fakeNow{t: time.Unix(0, 0)}
	b := newAdmissionBucket(1000, 50, fc.now)
	fc.advance(time.Hour) // would be 3.6M tokens uncapped
	if !b.TryTake(50) {
		t.Fatal("burst-sized take failed after a long idle")
	}
	if b.TryTake(1) {
		t.Fatal("bucket held more than burst")
	}
}

// TestTokenBucketRejection: TryTake never blocks and never
// over-grants — the admission-control semantics.
func TestTokenBucketRejection(t *testing.T) {
	fc := &fakeNow{t: time.Unix(0, 0)}
	b := newAdmissionBucket(10, 3, fc.now) // 10/s, burst 3, starts full
	for i := 0; i < 3; i++ {
		if !b.TryTake(1) {
			t.Fatalf("initial burst take %d rejected", i)
		}
	}
	if b.TryTake(1) {
		t.Fatal("take past the burst granted")
	}
	fc.advance(100 * time.Millisecond) // exactly one token
	if !b.TryTake(1) {
		t.Fatal("refilled token rejected")
	}
	if b.TryTake(1) {
		t.Fatal("second take granted from one refilled token")
	}
}

// TestTokenBucketVirtualClockDeterminism: two buckets driven by the
// same virtual timeline make identical grant/reject decisions — the
// property overload-study admission rides on.
func TestTokenBucketVirtualClockDeterminism(t *testing.T) {
	run := func() []bool {
		vc := NewVirtualClock(time.Unix(0, 0))
		b := newAdmissionBucket(50, 10, vc.Now)
		var got []bool
		for i := 0; i < 100; i++ {
			vc.Advance(7 * time.Millisecond)
			got = append(got, b.TryTake(1))
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical virtual timelines", i)
		}
	}
}
