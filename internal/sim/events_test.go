package sim

import (
	"math/rand"
	"sort"
	"testing"

	"saath/internal/coflow"
)

// popAll drains q, returning events in pop order.
func popAll(q *eventQueue) []event {
	var out []event
	for {
		ev, ok := q.pop()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestEventQueueSimultaneousOrdering is the determinism property the
// engine's equivalence contract leans on: events sharing a timestamp
// pop in (kind priority, key, seq) order no matter what order they
// were pushed in. It pushes a mixed batch — several timestamps, every
// kind, colliding keys — in 200 random permutations and requires the
// identical pop sequence every time.
func TestEventQueueSimultaneousOrdering(t *testing.T) {
	var batch []event
	for _, tm := range []coflow.Time{0, 8000, 8000, 16000} {
		for kind := eventFlowDone; kind <= eventEpoch; kind++ {
			for key := int64(0); key < 3; key++ {
				batch = append(batch, event{time: tm, kind: kind, key: key, spec: int(key)})
			}
		}
	}

	// The expected order, independent of seq: stable-sort by
	// (time, kind, key); ties beyond that keep push order, which the
	// reference push (in-order) realizes by construction.
	want := append([]event(nil), batch...)
	sort.SliceStable(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.key < b.key
	})

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(len(batch))
		var q eventQueue
		for _, i := range perm {
			q.push(batch[i])
		}
		got := popAll(&q)
		if len(got) != len(want) {
			t.Fatalf("trial %d: popped %d events, pushed %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].time != want[i].time || got[i].kind != want[i].kind || got[i].key != want[i].key {
				t.Fatalf("trial %d: pop[%d] = {t=%d kind=%d key=%d}, want {t=%d kind=%d key=%d}",
					trial, i, got[i].time, got[i].kind, got[i].key,
					want[i].time, want[i].kind, want[i].key)
			}
		}
	}
}

// TestEventQueueSeqBreaksFullTies exercises the last tiebreak level:
// events identical in (time, kind, key) must pop in push order.
func TestEventQueueSeqBreaksFullTies(t *testing.T) {
	var q eventQueue
	for i := 0; i < 50; i++ {
		q.push(event{time: 8000, kind: eventAvail, key: 0, spec: i})
	}
	for i, ev := range popAll(&q) {
		if ev.spec != i {
			t.Fatalf("pop[%d].spec = %d, want %d (push order)", i, ev.spec, i)
		}
	}
}

// TestEventQueueInterleavedRandomOps is the ordering property test:
// under a random interleaving of pushes and pops the heap always pops
// the minimum of a model kept sorted by (time, kind, key, push order).
func TestEventQueueInterleavedRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var model []event // sorted; spec is the push counter
	for op := 0; op < 5000; op++ {
		if rng.Intn(10) < 6 {
			ev := event{
				time: coflow.Time(rng.Intn(50) * 1000),
				kind: eventKind(rng.Intn(4)),
				key:  int64(rng.Intn(4)),
				spec: op,
			}
			q.push(ev)
			at := sort.Search(len(model), func(i int) bool {
				m := model[i]
				if m.time != ev.time {
					return m.time > ev.time
				}
				if m.kind != ev.kind {
					return m.kind > ev.kind
				}
				return m.key > ev.key // equal (time,kind,key): earlier push stays ahead
			})
			model = append(model, event{})
			copy(model[at+1:], model[at:])
			model[at] = ev
		} else {
			ev, ok := q.pop()
			if !ok {
				if len(model) != 0 {
					t.Fatalf("op %d: queue empty, model holds %d", op, len(model))
				}
				continue
			}
			if len(model) == 0 || model[0].spec != ev.spec {
				t.Fatalf("op %d: popped spec %d, model expects %+v", op, ev.spec, model)
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model %d", op, q.Len(), len(model))
		}
	}
}
