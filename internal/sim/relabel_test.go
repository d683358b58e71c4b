package sim

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/trace"
)

// relabel returns a copy of tr with port p renamed perm[p] at both ends
// of every flow.
func relabel(tr *trace.Trace, perm []int) *trace.Trace {
	out := tr.Clone()
	out.Name += "/relabelled"
	for _, s := range out.Specs {
		for i := range s.Flows {
			s.Flows[i].Src = coflow.PortID(perm[s.Flows[i].Src])
			s.Flows[i].Dst = coflow.PortID(perm[s.Flows[i].Dst])
		}
	}
	return out
}

// relationTraces are the traces the metamorphic relations run on: the
// Fig. 1, 4, 8 and 17 micro traces and a small FB-shaped synthetic one.
func relationTraces() []*trace.Trace {
	cfg := trace.DefaultFBConfig(3)
	cfg.NumPorts, cfg.NumCoFlows, cfg.MaxLarge = 20, 60, coflow.GB
	return []*trace.Trace{
		trace.Fig1Trace(), trace.Fig4Trace(), trace.Fig8Trace(), trace.Fig17Trace(),
		trace.Synthesize(cfg, "fb-small"),
	}
}

// A relationColumn is one model the metamorphic relations run under.
type relationColumn struct {
	name string
	cfg  Config
}

// relationColumns are the plain model, pipelining (flows held back,
// then released: SetAvailable) and dynamics (stragglers and mid-life
// restarts: Restart).
func relationColumns() []relationColumn {
	return []relationColumn{
		{"plain", Config{}},
		{"pipelining", Config{Pipelining: &Pipelining{Frac: 0.5, AvailDelay: 20 * coflow.Millisecond}}},
		{"dynamics", Config{Dynamics: &Dynamics{StragglerProb: 0.3, Slowdown: 2, RestartProb: 0.2, RestartAt: 0.5}}},
	}
}

// orderDependent names the registered policies whose schedule depends
// on how ports are numbered, each with the reason. Such a row must keep
// failing the relation: once it holds, the mark comes off.
var orderDependent = map[string]string{
	// Each sender port serves its flows in turn, in port-index order, so
	// low-index senders get first pick at every receiver (ROADMAP 17).
	"aalo": "port-major fill in index order",
}

// TestPortRelabellingLeavesCCTs is the port-relabelling metamorphic
// relation: renaming the ports by a random permutation changes nothing a
// policy may decide from, so every CoFlow's CCT must come out identical,
// to the microsecond. It runs every registered policy on the
// relationTraces, three permutations each, in the three relationColumns.
// Pipelining's and dynamics' draws are made per flow in Flows order, so a
// relabelled trace rolls the same fates. A policy in orderDependent must
// instead differ on at least one run.
func TestPortRelabellingLeavesCCTs(t *testing.T) {
	traces := relationTraces()
	for name := range orderDependent {
		if _, err := sched.New(name, sched.DefaultParams()); err != nil {
			t.Errorf("orderDependent names %q: %v", name, err)
		}
	}
	columns := relationColumns()
	for _, sn := range sched.Names() {
		differs := false
		for _, col := range columns {
			for _, tr := range traces {
				want := runOn(t, tr, sn, col.cfg).CCTByID()
				rng := rand.New(rand.NewSource(1))
				for k := 0; k < 3; k++ {
					perm := rng.Perm(tr.NumPorts)
					got := runOn(t, relabel(tr, perm), sn, col.cfg).CCTByID()
					if maps.Equal(got, want) {
						continue
					}
					if _, ok := orderDependent[sn]; !ok {
						t.Errorf("%s (%s) on %s relabelled by %v: CCTs %v, unrelabelled %v", sn, col.name, tr.Name, perm, got, want)
					}
					differs = true
				}
			}
		}
		if why, ok := orderDependent[sn]; ok && !differs {
			t.Errorf("%s (recorded as order-dependent: %s) now holds the relation on every trace: take it off orderDependent", sn, why)
		}
	}
}

// withLateArrival returns a copy of tr with one CoFlow appended: the
// flows of tr's first CoFlow under a fresh ID, arriving at the given
// time.
func withLateArrival(tr *trace.Trace, at coflow.Time) (*trace.Trace, coflow.CoFlowID) {
	out := tr.Clone()
	out.Name += "/late"
	var id coflow.CoFlowID
	for _, s := range out.Specs {
		id = max(id, s.ID)
	}
	id++
	out.Specs = append(out.Specs, &coflow.Spec{ID: id, Arrival: at, Flows: slices.Clone(out.Specs[0].Flows)})
	return out, id
}

// TestLateArrivalLeavesCCTs is the late-arrival metamorphic relation: a
// CoFlow that arrives after every other has finished can reach no
// decision about them, so appending one to the trace must leave every
// other CoFlow's CCT identical, to the microsecond, and the newcomer must
// finish. It runs every registered policy on the relationTraces in the
// three relationColumns; the newcomer arrives one second after the
// makespan and is last in Flows order, so pipelining and dynamics roll
// every other flow the same fate. No registered policy fails it.
func TestLateArrivalLeavesCCTs(t *testing.T) {
	traces := relationTraces()
	for _, sn := range sched.Names() {
		for _, col := range relationColumns() {
			for _, tr := range traces {
				base := runOn(t, tr, sn, col.cfg)
				late, id := withLateArrival(tr, base.Makespan+coflow.Second)
				got := runOn(t, late, sn, col.cfg).CCTByID()
				if _, ok := got[id]; !ok {
					t.Errorf("%s (%s) on %s: the late CoFlow %d did not finish", sn, col.name, tr.Name, id)
				}
				delete(got, id)
				if want := base.CCTByID(); !maps.Equal(got, want) {
					t.Errorf("%s (%s) on %s with a CoFlow arriving after the makespan: CCTs %v, without it %v", sn, col.name, tr.Name, got, want)
				}
			}
		}
	}
}
