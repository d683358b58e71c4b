package runtime

import (
	"testing"

	"saath/internal/coflow"
)

// TestTokenBucketRefill: tokens accrue at the configured rate and are
// spent by TryTake, all in virtual time.
func TestTokenBucketRefill(t *testing.T) {
	var now coflow.Time
	b := newAdmissionBucket(100, 1000) // 100 units/s
	if !b.TryTake(1000, now) {
		t.Fatal("a new bucket did not start full")
	}
	if b.TryTake(1, now) {
		t.Fatal("empty bucket granted a token")
	}
	now += 100 * coflow.Millisecond // +10 tokens
	if !b.TryTake(10, now) {
		t.Fatal("refill did not accrue 10 tokens over 100ms at rate 100/s")
	}
	if b.TryTake(1, now) {
		t.Fatal("budget was not spent by the previous take")
	}
}

// TestTokenBucketBurstCap: the bucket never holds more than burst, no
// matter how long it idles.
func TestTokenBucketBurstCap(t *testing.T) {
	b := newAdmissionBucket(1000, 50)
	now := 3600 * coflow.Second // would be 3.6M tokens uncapped
	if !b.TryTake(50, now) {
		t.Fatal("burst-sized take failed after a long idle")
	}
	if b.TryTake(1, now) {
		t.Fatal("bucket held more than burst")
	}
}

// TestTokenBucketRejection: TryTake never blocks and never
// over-grants — the admission-control semantics.
func TestTokenBucketRejection(t *testing.T) {
	var now coflow.Time
	b := newAdmissionBucket(10, 3) // 10/s, burst 3, starts full
	for i := 0; i < 3; i++ {
		if !b.TryTake(1, now) {
			t.Fatalf("initial burst take %d rejected", i)
		}
	}
	if b.TryTake(1, now) {
		t.Fatal("take past the burst granted")
	}
	now += 100 * coflow.Millisecond // exactly one token
	if !b.TryTake(1, now) {
		t.Fatal("refilled token rejected")
	}
	if b.TryTake(1, now) {
		t.Fatal("second take granted from one refilled token")
	}
}

// TestTokenBucketVirtualClockDeterminism: two buckets driven by the
// same virtual timeline make identical grant/reject decisions — the
// property overload-study admission rides on.
func TestTokenBucketVirtualClockDeterminism(t *testing.T) {
	run := func() []bool {
		var now coflow.Time
		b := newAdmissionBucket(50, 10)
		var got []bool
		for i := 0; i < 100; i++ {
			now += 7 * coflow.Millisecond
			got = append(got, b.TryTake(1, now))
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
