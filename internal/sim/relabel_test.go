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

// renameID is the monotone CoFlow renaming of the renaming relation:
// it keeps every (arrival, ID) order, and so every tie-break on ID.
func renameID(id coflow.CoFlowID) coflow.CoFlowID { return 3*id + 7 }

// renamed returns a copy of tr with every CoFlow ID renamed by renameID
// (dependencies too) and, if reverse is set, every CoFlow's flow list
// reversed, which hands every flow another dense index.
func renamed(tr *trace.Trace, reverse bool) *trace.Trace {
	out := tr.Clone()
	out.Name += "/renamed"
	for _, s := range out.Specs {
		s.ID = renameID(s.ID)
		for i, d := range s.DependsOn {
			s.DependsOn[i] = renameID(d)
		}
		if reverse {
			slices.Reverse(s.Flows)
		}
	}
	return out
}

// flowOrderDependent names the registered policies whose schedule
// depends on the order of a CoFlow's flows (and so on their dense
// indices, which follow it), each with whether that is a bug or a
// modelling choice. Each walks flows one at a time and grants a flow
// all the residual path capacity left, so where two flows of a CoFlow
// share a port, the one listed first takes it. The paper leaves that
// order open; the trace formats list flows reducer-major. Such a row
// must keep failing the relation: once it holds, the mark comes off.
var flowOrderDependent = map[string]string{
	"aalo":                   "modelling choice: each sender port grants its queued flows in turn, a CoFlow's in Flows order",
	"lwtf":                   "modelling choice: the greedy fill grants flows the residual path in Flows order",
	"saath":                  "modelling choice: work conservation grants a missed CoFlow's flows in Flows order (saath/nowc holds)",
	"saath/an+fifo":          "modelling choice: work conservation grants a missed CoFlow's flows in Flows order",
	"saath/an+pf+fifo":       "modelling choice: work conservation grants a missed CoFlow's flows in Flows order",
	"saath/width-contention": "modelling choice: work conservation grants a missed CoFlow's flows in Flows order",
	"scf":                    "modelling choice: the greedy fill grants flows the residual path in Flows order",
	"sjf-duration":           "modelling choice: the greedy fill grants flows the residual path in Flows order",
	"srtf":                   "modelling choice: the greedy fill grants flows the residual path in Flows order",
}

// TestRenamingLeavesCCTs is the ID- and dense-index-renaming
// metamorphic relation: renaming every CoFlow's ID monotonically keeps
// the (arrival, ID) order every policy may decide from, and reversing
// every CoFlow's flow list moves every flow's dense index and its place
// in the list, neither of which the paper gives a policy to decide
// from; so every CoFlow's CCT, mapped back by ID, must come out
// identical, to the microsecond. It runs every registered
// policy on the relationTraces in the three relationColumns. Pipelining
// and dynamics roll their draws per flow in Flows order, so a reversed
// list would roll other fates: there the flow lists keep their order and
// only the IDs are renamed. A policy in flowOrderDependent must instead
// differ on at least one run. varys, uc-tcp and saath/nowc hold it here;
// on SynthFB(1), flows reversed, varys moves 13 of 526 CCTs by 1 µs, and
// uc-tcp and saath/nowc none.
func TestRenamingLeavesCCTs(t *testing.T) {
	traces := relationTraces()
	for name := range flowOrderDependent {
		if _, err := sched.New(name, sched.DefaultParams()); err != nil {
			t.Errorf("flowOrderDependent names %q: %v", name, err)
		}
	}
	for _, sn := range sched.Names() {
		differs := false
		for _, col := range relationColumns() {
			reverse := col.cfg.Pipelining == nil && col.cfg.Dynamics == nil
			for _, tr := range traces {
				want := runOn(t, tr, sn, col.cfg).CCTByID()
				got := map[coflow.CoFlowID]coflow.Time{}
				for id, cct := range runOn(t, renamed(tr, reverse), sn, col.cfg).CCTByID() {
					got[(id-7)/3] = cct
				}
				if maps.Equal(got, want) {
					continue
				}
				if _, ok := flowOrderDependent[sn]; !ok {
					t.Errorf("%s (%s) on %s renamed (flows reversed: %v): CCTs %v, as named %v", sn, col.name, tr.Name, reverse, got, want)
				}
				differs = true
			}
		}
		if why, ok := flowOrderDependent[sn]; ok && !differs {
			t.Errorf("%s (recorded as flow-order-dependent: %s) now holds the relation on every trace: take it off flowOrderDependent", sn, why)
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
