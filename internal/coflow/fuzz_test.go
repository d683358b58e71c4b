package coflow

import (
	"slices"
	"testing"
)

// FuzzProgressSummary drives one CoFlow through random interleavings of
// its writers — bytes moving on pending flows (Progress), completions
// (Complete one flow, several one call each, or CompleteAll several in
// one call), availability flips (SetAvailable), rewrites of a finished
// flow's Sent (Progress), restarts (Restart) — and after every step that reads,
// checks every summary accessor against a from-scratch pass over Flows.
// Reads are skipped on some steps and DoneMedian is asked only on some,
// so Complete meets fresh and stale summaries, with and without its
// sorted done list.
//
// A step may also first retire the CoFlow through a free list (Spares)
// and re-admit one of another width on what it left, which must equal
// New's.
//
// The input is a width byte (a quarter of the width) followed by (op,
// arg) byte pairs. The op's low three bits pick the mutation (6, which
// swapped in a restated flow set, is retired and does nothing), bit 3 skips
// the step's reads, bit 4 asks DoneMedian and bit 5 retires and
// re-admits first, at a width arg sets; arg picks the flow (by
// where along Flows to start looking), the bytes or the batch size (and,
// by its low bit, whether a batch is one call). The committed corpus
// under testdata/fuzz holds one input per mutation, a wide CoFlow
// finished from the middle one flow at a time past Complete's shift
// budget, batches in one call, an availability flip that nothing reads
// before the next Complete, and the two moves of m_c that are not a
// raise: a restart of the flow holding it and a finished flow's Sent
// rewritten; and CoFlows re-admitted on the storage of one that did all
// of that.
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
		var spares Spares
		c := spares.New(spec)
		pick := func(arg byte, pending bool) *Flow { // from arg/256 of the way along
			for k, at := 0, int(arg)*len(c.Flows)/256; k < len(c.Flows); k++ {
				f := c.Flows[(at+k)%len(c.Flows)]
				if f.Done() != pending {
					return f
				}
			}
			return nil
		}
		for step, ops := 0, in[1:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
			op, arg := ops[0], ops[1]
			if op&32 != 0 { // retire, and re-admit at up to twice the input's width on what it left
				w := 1 + int(arg)*width/128
				spares.Put(c)
				if c.Flows != nil {
					t.Fatalf("step %d: a retired CoFlow keeps its flows", step)
				}
				next := &Spec{ID: CoFlowID(step + 2)}
				for i := 0; i < w; i++ {
					next.Flows = append(next.Flows, FlowSpec{Src: PortID(i % 7), Dst: PortID(i % 5), Size: Bytes(100 + 37*((i+int(arg))%11))})
				}
				c = spares.New(next)
				sameAsNew(t, c)
			}
			switch op & 7 {
			case 0: // bytes move on a pending flow
				if f := pick(arg, true); f != nil {
					c.Progress(f, min(f.Size-1, f.Sent()+Bytes(arg)))
				}
			case 1: // one completion
				if f := pick(arg, true); f != nil {
					c.Progress(f, f.Size)
					c.Complete(f, Time(step))
				}
			case 2: // completions first position first: one call each, or one for all
				var batch []Completion
				for _, f := range c.Flows {
					if !f.Done() && len(batch) < int(arg>>1) {
						c.Progress(f, f.Size)
						batch = append(batch, Completion{f, Time(step)})
					}
				}
				if arg&1 == 0 {
					for _, d := range batch {
						c.Complete(d.Flow, d.At)
					}
				} else {
					if f := pick(arg, false); f != nil {
						batch = append(batch, Completion{f, Time(step)}) // already finished: left as it is
					}
					c.CompleteAll(batch)
				}
			case 3: // availability flip
				f := c.Flows[int(arg)*len(c.Flows)/256]
				c.SetAvailable(f, !f.Available())
			case 4: // restart: progress lost, still pending
				if f := pick(arg, true); f != nil {
					c.Restart(f)
				}
			case 5: // a finished flow's Sent rewritten
				if f := pick(arg, false); f != nil {
					c.Progress(f, f.Sent()+Bytes(arg))
				}
			case 7: // Complete on a flow that is no longer pending: left as it is
				if f := pick(arg, false); f != nil {
					c.Complete(f, Time(step))
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
		maxSent = max(maxSent, f.Sent())
		total += f.Sent()
		if f.Sendable() {
			sendable = append(sendable, f)
			ports = append(ports, PortPair{int32(f.Src), int32(f.Dst)})
		}
		if !f.Done() {
			pending = append(pending, f)
			continue
		}
		done = append(done, f.Sent())
		last = max(last, f.DoneAt())
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
