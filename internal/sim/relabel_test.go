package sim

import (
	"maps"
	"math/rand"
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
// to the microsecond. It runs every registered policy on the Fig. 1, 4,
// 8 and 17 micro traces and a small FB-shaped synthetic trace, three
// permutations each, in three columns: the plain model, pipelining
// (flows held back, then released: SetAvailable) and dynamics
// (stragglers and mid-life restarts: Restart). Their draws are made per
// flow in Flows order, so a relabelled trace rolls the same fates. A
// policy in orderDependent must instead differ on at least one run.
func TestPortRelabellingLeavesCCTs(t *testing.T) {
	cfg := trace.DefaultFBConfig(3)
	cfg.NumPorts, cfg.NumCoFlows, cfg.MaxLarge = 20, 60, coflow.GB
	traces := []*trace.Trace{
		trace.Fig1Trace(), trace.Fig4Trace(), trace.Fig8Trace(), trace.Fig17Trace(),
		trace.Synthesize(cfg, "fb-small"),
	}
	for name := range orderDependent {
		if _, err := sched.New(name, sched.DefaultParams()); err != nil {
			t.Errorf("orderDependent names %q: %v", name, err)
		}
	}
	columns := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"pipelining", Config{Pipelining: &Pipelining{Frac: 0.5, AvailDelay: 20 * coflow.Millisecond}}},
		{"dynamics", Config{Dynamics: &Dynamics{StragglerProb: 0.3, Slowdown: 2, RestartProb: 0.2, RestartAt: 0.5}}},
	}
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
