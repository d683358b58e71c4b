package coflow

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestFlowLayout pins the per-flow records every layer holds: a Flow is
// 56 bytes and a FlowSpec 16 on a 64-bit platform. A field added, or
// one moved out of the packing Flow's doc comment describes, shows here
// first.
func TestFlowLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Flow{}); got != 56 {
		t.Errorf("Flow is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(FlowSpec{}); got != 16 {
		t.Errorf("FlowSpec is %d bytes, want 16", got)
	}
}

func spec2x2() *Spec {
	return &Spec{
		ID:      7,
		Arrival: 5 * Millisecond,
		Flows: []FlowSpec{
			{Src: 0, Dst: 2, Size: 10 * MB},
			{Src: 0, Dst: 3, Size: 20 * MB},
			{Src: 1, Dst: 2, Size: 30 * MB},
			{Src: 1, Dst: 3, Size: 40 * MB},
		},
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if got := Time(0).Seconds(); got != 0 {
		t.Fatalf("Seconds(0) = %v", got)
	}
}

func TestGbpsRate(t *testing.T) {
	if got := GbpsRate(1); got != 125e6 {
		t.Fatalf("1 Gbps = %v B/s, want 1.25e8", got)
	}
}

func TestRateTransfer(t *testing.T) {
	r := GbpsRate(1)
	if got := r.Transfer(8 * Millisecond); got != Bytes(1e6) {
		t.Fatalf("transfer = %d, want 1e6", got)
	}
	if got := r.Transfer(0); got != 0 {
		t.Fatalf("transfer(0) = %d", got)
	}
	if got := r.Transfer(-Second); got != 0 {
		t.Fatalf("transfer(neg) = %d", got)
	}
	if got := Rate(0).Transfer(Second); got != 0 {
		t.Fatalf("zero-rate transfer = %d", got)
	}
}

func TestTimeToSend(t *testing.T) {
	r := Rate(1e6) // 1 MB/s
	if got := r.TimeToSend(1e6); got != Second {
		t.Fatalf("TimeToSend = %v, want 1s", got)
	}
	if got := r.TimeToSend(0); got != 0 {
		t.Fatalf("TimeToSend(0) = %v", got)
	}
	if got := Rate(0).TimeToSend(1); got != maxTime {
		t.Fatalf("TimeToSend at zero rate = %v, want maxTime", got)
	}
	// Rounds up: 1 byte at 1 MB/s is 1 µs.
	if got := r.TimeToSend(1); got != Microsecond {
		t.Fatalf("TimeToSend(1B) = %v, want 1µs", got)
	}
}

func TestTimeToSendTransferRoundTrip(t *testing.T) {
	// Property: sending for TimeToSend(b) at rate r moves at least b bytes.
	f := func(rawRate uint32, rawBytes uint32) bool {
		r := Rate(rawRate%100_000_000 + 1)
		b := Bytes(rawBytes % 1_000_000_000)
		d := r.TimeToSend(b)
		if d >= maxTime {
			return false
		}
		return r.Transfer(d) >= b-1 // allow 1 byte of float slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecAccessors(t *testing.T) {
	s := spec2x2()
	if s.Width() != 4 {
		t.Fatalf("Width = %d", s.Width())
	}
	if s.TotalSize() != 100*MB {
		t.Fatalf("TotalSize = %d", s.TotalSize())
	}
}

func TestSpecValidate(t *testing.T) {
	if err := spec2x2().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no flows", func(s *Spec) { s.Flows = nil }},
		{"negative arrival", func(s *Spec) { s.Arrival = -1 }},
		{"negative size", func(s *Spec) { s.Flows[0].Size = -1 }},
		{"negative src", func(s *Spec) { s.Flows[1].Src = -2 }},
		{"negative dst", func(s *Spec) { s.Flows[2].Dst = -2 }},
	}
	for _, tc := range cases {
		s := spec2x2()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestNewRuntimeState(t *testing.T) {
	c := New(spec2x2())
	if c.Width() != 4 {
		t.Fatalf("Width = %d", c.Width())
	}
	if c.Arrived != 5*Millisecond {
		t.Fatalf("Arrived = %v", c.Arrived)
	}
	for i, f := range c.Flows {
		if !f.Available() {
			t.Errorf("flow %d not available", i)
		}
		if f.Slowdown != 1 {
			t.Errorf("flow %d slowdown = %v", i, f.Slowdown)
		}
		if id := c.FlowID(f); id.CoFlow != 7 || id.Index != i || f.Index() != i {
			t.Errorf("flow %d bad id %v", i, id)
		}
	}
}

func TestMaxAndTotalSent(t *testing.T) {
	c := New(spec2x2())
	c.Progress(c.Flows[0], 3*MB)
	c.Progress(c.Flows[2], 9*MB)
	if got := c.MaxSent(); got != 9*MB {
		t.Fatalf("MaxSent = %d", got)
	}
	if got := c.TotalSent(); got != 12*MB {
		t.Fatalf("TotalSent = %d", got)
	}
	if got := c.TotalRemaining(); got != 100*MB-12*MB {
		t.Fatalf("TotalRemaining = %d", got)
	}
}

// TestProgressStamp: Progress on a pending flow moves the progress stamp
// and nothing else; SetAvailable moves the epoch and not the stamp.
// Together they are what a scheduler keys a derived queue on.
func TestProgressStamp(t *testing.T) {
	c := New(spec2x2())
	epoch, stamp := c.CacheEpoch(), c.ProgressStamp()
	c.Progress(c.Flows[0], MB)
	if c.ProgressStamp() == stamp || c.CacheEpoch() != epoch {
		t.Fatalf("after Progress: stamp %d -> %d, epoch %d -> %d", stamp, c.ProgressStamp(), epoch, c.CacheEpoch())
	}
	if c.MaxSent() != MB {
		t.Fatalf("MaxSent = %d: a pending flow's bytes are read live", c.MaxSent())
	}
	stamp = c.ProgressStamp()
	c.SetAvailable(c.Flows[1], false)
	if c.ProgressStamp() != stamp || c.CacheEpoch() == epoch {
		t.Fatal("SetAvailable moved the progress stamp, or not the epoch")
	}
}

// TestWriterStamps holds each writer to the stamps it moves, on a
// pending flow, on a finished one and for a write that changes nothing.
// A scheduler holds its decision while both stamps stand, so a writer
// that moved one more or one less than this would change how many
// schedules are held. Progress moves the progress stamp on a pending
// flow even when the count is unchanged: the engine reports every rated
// flow's interval, whether or not a byte moved.
func TestWriterStamps(t *testing.T) {
	one := func(c *CoFlow, f *Flow) { c.Complete(f, Second) }
	rows := []struct {
		name            string
		finished        bool // the flow written is finished first
		write           func(c *CoFlow, f *Flow)
		epoch, progress bool // which stamps move
	}{
		{"Progress/pending", false, func(c *CoFlow, f *Flow) { c.Progress(f, MB) }, false, true},
		{"Progress/finished", true, func(c *CoFlow, f *Flow) { c.Progress(f, f.Sent()+MB) }, true, false},
		{"Progress/no-op", false, func(c *CoFlow, f *Flow) { c.Progress(f, f.Sent()) }, false, true},
		{"Restart/pending", false, func(c *CoFlow, f *Flow) { c.Restart(f) }, false, true},
		{"Restart/finished", true, func(c *CoFlow, f *Flow) { c.Restart(f) }, true, false},
		{"SetAvailable/pending", false, func(c *CoFlow, f *Flow) { c.SetAvailable(f, false) }, true, false},
		{"SetAvailable/finished", true, func(c *CoFlow, f *Flow) { c.SetAvailable(f, false) }, true, false},
		{"SetAvailable/no-op", false, func(c *CoFlow, f *Flow) { c.SetAvailable(f, true) }, false, false},
		{"Complete/pending", false, one, true, false},
		{"Complete/finished", true, one, false, false},
		{"CompleteAll/pending", false, func(c *CoFlow, f *Flow) {
			c.CompleteAll([]Completion{{f, Second}, {c.Flows[3], Second}})
		}, true, false},
		{"CompleteAll/finished", true, func(c *CoFlow, f *Flow) {
			c.CompleteAll([]Completion{{f, Second}, {f, Second}})
		}, false, false},
	}
	for _, r := range rows {
		c := New(spec2x2())
		f := c.Flows[0]
		c.Progress(f, MB/2)
		if r.finished {
			c.Progress(f, f.Size)
			c.Complete(f, Millisecond)
		}
		c.MaxSent() // a fresh summary
		epoch, stamp := c.CacheEpoch(), c.ProgressStamp()
		r.write(c, f)
		if moved := c.CacheEpoch() != epoch; moved != r.epoch {
			t.Errorf("%s: epoch moved %v, want %v", r.name, moved, r.epoch)
		}
		if moved := c.ProgressStamp() != stamp; moved != r.progress {
			t.Errorf("%s: progress stamp moved %v, want %v", r.name, moved, r.progress)
		}
		checkSummary(t, c, true, 0)
	}
}

func TestFlowRemainingClamped(t *testing.T) {
	c := New(&Spec{Flows: []FlowSpec{{Size: 10}}})
	f := c.Flows[0]
	c.Progress(f, 15)
	if got := f.Remaining(); got != 0 {
		t.Fatalf("Remaining = %d, want 0", got)
	}
}

func TestEffectiveRate(t *testing.T) {
	f := &Flow{Slowdown: 1}
	if got := f.EffectiveRate(100, 100); got != 100 {
		t.Fatalf("EffectiveRate = %v", got)
	}
	f.Slowdown = 4
	if got := f.EffectiveRate(100, 100); got != 25 {
		t.Fatalf("EffectiveRate slowed = %v", got)
	}
	// The ceiling is absolute: an allocation already below line/k
	// passes through untouched.
	if got := f.EffectiveRate(10, 100); got != 10 {
		t.Fatalf("EffectiveRate below ceiling = %v", got)
	}
}

func TestRefreshDone(t *testing.T) {
	c := New(spec2x2())
	if c.RefreshDone() {
		t.Fatal("fresh coflow reported done")
	}
	for i, f := range c.Flows {
		c.Complete(f, Time(i+1)*Second)
	}
	if !c.RefreshDone() {
		t.Fatal("completed coflow not detected")
	}
	if c.DoneAt != 4*Second {
		t.Fatalf("DoneAt = %v, want 4s (last flow)", c.DoneAt)
	}
	if c.CCT() != 4*Second-5*Millisecond {
		t.Fatalf("CCT = %v", c.CCT())
	}
	if c.RefreshDone() {
		t.Fatal("RefreshDone should be false once already done")
	}
}

func TestPendingAndFinished(t *testing.T) {
	c := New(spec2x2())
	c.Progress(c.Flows[1], 20*MB)
	c.Complete(c.Flows[1], 0)
	if got := len(c.PendingFlows()); got != 3 {
		t.Fatalf("pending = %d", got)
	}
	if got := c.NumPending(); got != 3 {
		t.Fatalf("NumPending = %d", got)
	}
	if got := c.DoneMedian(); got != 20*MB {
		t.Fatalf("finished median = %d", got)
	}
}

func TestDoneMedian(t *testing.T) {
	c := New(spec2x2())
	if got := c.DoneMedian(); got != 0 {
		t.Fatalf("median of no finished flows = %d", got)
	}
	for i, sent := range []Bytes{3, 1, 2} {
		c.Progress(c.Flows[i], sent)
		c.Complete(c.Flows[i], 0)
	}
	if got := c.DoneMedian(); got != 2 {
		t.Fatalf("odd median = %d", got)
	}
	c.Progress(c.Flows[3], 4)
	c.Complete(c.Flows[3], 0)
	if got := c.DoneMedian(); got != 2 { // (2+3)/2 truncated
		t.Fatalf("even median = %d", got)
	}
}

// TestProgressSummaryMatchesFullScan drives CoFlows through the
// mutations their owners perform — byte progress on pending flows,
// completions, availability flips, restarts — through the writers, and
// checks every cached accessor against a from-scratch pass over Flows
// after each step.
func TestProgressSummaryMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		spec := &Spec{ID: CoFlowID(trial + 1)}
		for i, w := 0, rng.Intn(12)+1; i < w; i++ {
			spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(rng.Intn(4)), Dst: PortID(rng.Intn(4)), Size: Bytes(rng.Intn(1000) + 1)})
		}
		c := New(spec)
		for step := 0; step < 80; step++ {
			f := c.Flows[rng.Intn(len(c.Flows))]
			switch rng.Intn(5) {
			case 0, 1: // bytes move on a pending flow
				if !f.Done() {
					c.Progress(f, f.Sent()+Bytes(rng.Intn(int(f.Size))))
				}
			case 2: // completion
				if !f.Done() {
					c.Progress(f, f.Size)
					c.Complete(f, Time(step))
				}
			case 3: // availability flip
				c.SetAvailable(f, !f.Available())
			case 4: // restart after a failure: progress lost, still pending
				if !f.Done() {
					c.Restart(f)
				}
			}

			var maxSent, total Bytes
			var pending, sendable []*Flow
			var done []Bytes
			var last Time
			for _, f := range c.Flows {
				maxSent = max(maxSent, f.Sent())
				total += f.Sent()
				if f.Sendable() {
					sendable = append(sendable, f)
				}
				if !f.Done() {
					pending = append(pending, f)
					continue
				}
				done = append(done, f.Sent())
				last = max(last, f.DoneAt())
			}
			slices.Sort(done)
			var median Bytes
			if n := len(done); n%2 == 1 {
				median = done[n/2]
			} else if n > 0 {
				median = (done[n/2-1] + done[n/2]) / 2
			}

			if got := c.MaxSent(); got != maxSent {
				t.Fatalf("trial %d step %d: MaxSent = %d, scan %d", trial, step, got, maxSent)
			}
			if got := c.TotalSent(); got != total {
				t.Fatalf("trial %d step %d: TotalSent = %d, scan %d", trial, step, got, total)
			}
			if got := c.NumPending(); got != len(pending) {
				t.Fatalf("trial %d step %d: NumPending = %d, scan %d", trial, step, got, len(pending))
			}
			if !slices.Equal(c.PendingFlows(), pending) {
				t.Fatalf("trial %d step %d: PendingFlows differs from scan", trial, step)
			}
			if !slices.Equal(c.SendableFlows(), sendable) {
				t.Fatalf("trial %d step %d: SendableFlows differs from scan", trial, step)
			}
			if got := c.DoneMedian(); got != median {
				t.Fatalf("trial %d step %d: DoneMedian = %d, scan %d", trial, step, got, median)
			}
			if len(pending) == 0 {
				if !c.RefreshDone() || c.DoneAt != last {
					t.Fatalf("trial %d step %d: RefreshDone missed completion (DoneAt %v, scan %v)", trial, step, c.DoneAt, last)
				}
				break
			} else if c.RefreshDone() {
				t.Fatalf("trial %d step %d: RefreshDone with %d flows pending", trial, step, len(pending))
			}
		}
	}
}

// TestCompleteAllZeroAlloc: a completion costs the flows it completes —
// CompleteAll (and Complete, which it calls for a batch of one) updates
// a fresh summary, the sorted done list included, in place. Each run
// finishes every flow of its own CoFlow, out of order, in batches of
// one, two and three with reads in between, so every batch meets a
// fresh summary; each flow is first restarted halfway (Restart), as a
// straggler is under dynamics.
func TestCompleteAllZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs, width = 20, 24
	cs := make([]*CoFlow, runs+1) // AllocsPerRun warms up with one run
	for i := range cs {
		spec := &Spec{ID: CoFlowID(i)}
		for j := 0; j < width; j++ {
			spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(j % 5), Dst: PortID(j % 3), Size: Bytes(10 + j)})
		}
		cs[i] = New(spec)
		cs[i].SetAvailable(cs[i].Flows[width/2], false)
		cs[i].DoneMedian() // builds the summary and the done list
	}
	batch := make([]Completion, 0, 3)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c := cs[next]
		next++
		for k, size := 0, 1; k < width; k, size = k+size, size%3+1 {
			batch = batch[:0]
			for j := k; j < k+size; j++ {
				f := c.Flows[(j*7)%width]
				c.Progress(f, f.Size/2)
				c.Restart(f)
				c.Progress(f, f.Size)
				batch = append(batch, Completion{Flow: f, At: Time(j)})
			}
			c.CompleteAll(batch)
			_ = c.SendablePorts()
			_ = c.DoneMedian()
		}
	})
	if allocs != 0 {
		t.Fatalf("finishing a CoFlow allocated %.1f times", allocs)
	}
	for _, c := range cs {
		if !c.RefreshDone() {
			t.Fatal("a CoFlow with every flow finished is not done")
		}
	}
}
