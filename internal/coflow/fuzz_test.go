package coflow

import (
	"slices"
	"testing"
)

// FuzzProgressSummary drives one CoFlow through random interleavings of
// what its owners do to it — bytes moving on pending flows
// (NoteProgress), completions (Finish: one flow, several one call
// each, or several in one call), availability flips, rewrites of a
// finished flow's Sent and update()-style swaps to a new flow set (Invalidate), restarts — and
// after every step that reads, checks every summary accessor against a
// from-scratch pass over Flows. Reads are skipped on some steps and
// DoneMedian is asked only on some, so Finish meets fresh and stale
// summaries, with and without its sorted done list.
//
// The input is a width byte (a quarter of the width) followed by (op,
// arg) byte pairs. The op's low three bits pick the mutation, bit 3 skips
// the step's reads and bit 4 asks DoneMedian; arg picks the flow (by
// where along Flows to start looking), the bytes or the batch size (and,
// by its low bit, whether a batch is one call). The committed corpus
// under testdata/fuzz holds one input per mutation, a wide CoFlow
// finished from the middle one flow at a time past Finish's shift
// budget, batches in one call, a swap that leaves finished and pending
// flows mixed, and an availability flip that nothing reads before the
// next Finish.
func FuzzProgressSummary(f *testing.F) {
	f.Add([]byte{6, 0, 3, 1, 2, 2, 4, 17, 1, 4, 0, 0x11, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 4<<10 {
			t.Skip()
		}
		width := 4*int(in[0]) + 1
		spec := &Spec{ID: 1}
		for i := 0; i < width; i++ {
			spec.Flows = append(spec.Flows, FlowSpec{Src: PortID(i % 7), Dst: PortID(i % 5), Size: Bytes(100 + 37*(i%11))})
		}
		c := New(spec)
		pick := func(arg byte, pending bool) *Flow { // from arg/256 of the way along
			for k, at := 0, int(arg)*len(c.Flows)/256; k < len(c.Flows); k++ {
				f := c.Flows[(at+k)%len(c.Flows)]
				if f.Done != pending {
					return f
				}
			}
			return nil
		}
		for step, ops := 0, in[1:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
			op, arg := ops[0], ops[1]
			switch op & 7 {
			case 0: // bytes move on a pending flow
				if f := pick(arg, true); f != nil {
					f.Sent = min(f.Size-1, f.Sent+Bytes(arg))
					c.NoteProgress()
				}
			case 1: // one completion
				if f := pick(arg, true); f != nil {
					f.Sent, f.DoneAt = f.Size, Time(step)
					c.Finish(f)
				}
			case 2: // completions first position first: one call each, or one for all
				var batch []*Flow
				for _, f := range c.Flows {
					if !f.Done && len(batch) < int(arg>>1) {
						f.Sent, f.DoneAt = f.Size, Time(step)
						batch = append(batch, f)
					}
				}
				if arg&1 == 0 {
					for _, f := range batch {
						c.Finish(f)
					}
				} else {
					if f := pick(arg, false); f != nil {
						batch = append(batch, f) // already finished: in no list
					}
					c.Finish(batch...)
				}
			case 3: // availability flip
				f := c.Flows[int(arg)*len(c.Flows)/256]
				f.Available = !f.Available
				c.Invalidate()
			case 4: // restart: progress lost, still pending
				if f := pick(arg, true); f != nil {
					f.Sent, f.Restarted = 0, true
					c.NoteProgress()
				}
			case 5: // a finished flow's Sent rewritten
				if f := pick(arg, false); f != nil {
					f.Sent += Bytes(arg)
					c.Invalidate()
				}
			case 6: // update(): a new flow set, progress carried where sizes match
				next := &Spec{ID: 1, Flows: slices.Clone(c.Spec.Flows)}
				next.Flows[int(arg)%len(next.Flows)].Size += Bytes(arg%3) * 10
				if arg&1 == 1 {
					next.Flows = append(next.Flows, FlowSpec{Src: PortID(arg % 7), Dst: PortID(arg % 5), Size: 500})
				}
				old := c
				c = New(next)
				for i, f := range c.Flows {
					if i < len(old.Flows) && old.Flows[i].Size == f.Size {
						f.Sent, f.Done, f.DoneAt = old.Flows[i].Sent, old.Flows[i].Done, old.Flows[i].DoneAt
						f.Available = old.Flows[i].Available
					}
				}
				c.Invalidate()
			case 7: // Finish on a flow that is no longer pending: stale, never wrong
				if f := pick(arg, false); f != nil {
					c.Finish(f)
				}
			}
			if op&8 != 0 {
				continue
			}
			if checkSummary(t, c, op&16 != 0, step) {
				return
			}
		}
	})
}

// checkSummary compares every accessor of c with a pass over its flows,
// DoneMedian only when median is set, and reports whether c is done.
func checkSummary(t *testing.T, c *CoFlow, median bool, step int) bool {
	t.Helper()
	var maxSent, total Bytes
	var pending, sendable []*Flow
	var ports []PortPair
	var done []Bytes
	var last Time
	for _, f := range c.Flows {
		maxSent = max(maxSent, f.Sent)
		total += f.Sent
		if f.Sendable() {
			sendable = append(sendable, f)
			ports = append(ports, PortPair{int32(f.Src), int32(f.Dst)})
		}
		if !f.Done {
			pending = append(pending, f)
			continue
		}
		done = append(done, f.Sent)
		last = max(last, f.DoneAt)
	}
	if got := c.MaxSent(); got != maxSent {
		t.Fatalf("step %d: MaxSent = %d, scan %d", step, got, maxSent)
	}
	if got := c.TotalSent(); got != total {
		t.Fatalf("step %d: TotalSent = %d, scan %d", step, got, total)
	}
	if !slices.Equal(c.PendingFlows(), pending) {
		t.Fatalf("step %d: PendingFlows differs from the scan", step)
	}
	if !slices.Equal(c.SendableFlows(), sendable) {
		t.Fatalf("step %d: SendableFlows differs from the scan", step)
	}
	if !slices.Equal(c.SendablePorts(), ports) {
		t.Fatalf("step %d: SendablePorts = %v, scan %v", step, c.SendablePorts(), ports)
	}
	if median {
		slices.Sort(done)
		var want Bytes
		if n := len(done); n%2 == 1 {
			want = done[n/2]
		} else if n > 0 {
			want = (done[n/2-1] + done[n/2]) / 2
		}
		if got := c.DoneMedian(); got != want {
			t.Fatalf("step %d: DoneMedian = %d, scan %d", step, got, want)
		}
	}
	if len(pending) == 0 {
		if !c.RefreshDone() || c.DoneAt != last {
			t.Fatalf("step %d: RefreshDone missed the completion (DoneAt %v, scan %v)", step, c.DoneAt, last)
		}
		return true
	}
	if c.RefreshDone() {
		t.Fatalf("step %d: RefreshDone with %d flows pending", step, len(pending))
	}
	return false
}
