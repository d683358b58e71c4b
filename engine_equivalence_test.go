package saath

// The run loop is pinned to the engine it replaced. The signatures
// below were recorded from the fixed-δ tick loop at commit 34c8df4 —
// where the event loop running beside it was held to the same values —
// over the golden synthetic workload for three policies × two seeds in
// Dynamics and Pipelining configurations, plus a DAG-dependency
// workload in all three; the plain synthetic rows are the map-engine
// goldens. Each pins AvgCCT float bits, makespan, interval count and
// the sha256 of the full exported metrics JSON, i.e. every per-interval
// series the probes observed. (internal/sim checks the same scenarios
// differentially against the reference stepper; the test names date
// from when two loops were compared here.)

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"saath/internal/coflow"
)

// dagTrace builds a small diamond-dependency workload: two root
// shuffles gate a join stage which gates a final aggregation, plus an
// independent straggler-bait coflow arriving late.
func dagTrace() *Trace {
	flows := func(seed, n int) []FlowSpec {
		fs := make([]FlowSpec, n)
		for i := range fs {
			fs[i] = FlowSpec{
				Src:  PortID((seed + i) % 8),
				Dst:  PortID((seed + i + 3) % 8),
				Size: Bytes(seed+i+1) * 3 * MB,
			}
		}
		return fs
	}
	return &Trace{
		Name:     "dag-diamond",
		NumPorts: 8,
		Specs: []*Spec{
			{ID: 1, Arrival: 0, Flows: flows(0, 4)},
			{ID: 2, Arrival: 5 * Millisecond, Flows: flows(2, 3)},
			{ID: 3, Arrival: 0, DependsOn: []CoFlowID{1, 2}, Flows: flows(4, 5)},
			{ID: 4, Arrival: 0, DependsOn: []CoFlowID{3}, Flows: flows(1, 2)},
			{ID: 5, Arrival: 200 * Millisecond, Flows: flows(3, 6)},
		},
	}
}

func TestEngineModesByteIdentical(t *testing.T) {
	configs := map[string]SimConfig{
		"plain": {},
		"dynamics": {Dynamics: &Dynamics{
			Seed: 11, StragglerProb: 0.2, Slowdown: 3, RestartProb: 0.15, RestartAt: 0.4,
		}},
		"pipelining": {Pipelining: &Pipelining{
			Seed: 13, Frac: 0.3, AvailDelay: 40 * Millisecond,
		}},
	}
	type golden struct {
		config, scheduler string
		seed              int64 // 0: the DAG workload
		want              runSignature
	}
	goldens := []golden{
		{"plain", "saath", 0, runSignature{0x3fcf75246f4b1176, 744000, 93, "68403af368ff689e46dadc803a299fd5ffe5d2d3ca837765bd4098ba8396566c"}},
		{"dynamics", "saath", 1, runSignature{0x3fe3aad64994e61e, 4856000, 584, "7e89836dc6dd1d259f4c8048d5bd9d5abdab4b10253bf35ba4ffb397d107ddb3"}},
		{"dynamics", "saath", 2, runSignature{0x3fe7cd8115cd800a, 3904000, 486, "4d929cbde4bcfdf5b3fa3ff912ae25f66d22a6ea96a9a48817503d88961c5cd9"}},
		{"dynamics", "varys", 1, runSignature{0x3fdf944fadbd3d0d, 4672000, 561, "822b7d0d3475eb690c58b6156b79d473016ae924ebd739d1d45537e2991f193d"}},
		{"dynamics", "varys", 2, runSignature{0x3fe1d010b98ba769, 3560000, 443, "cff844278f7d0c444c9ad5e65c8b82dfb8bed39e8d5b2d2007c9203bebf121b8"}},
		{"dynamics", "aalo", 1, runSignature{0x3ff103d69edda639, 5776000, 700, "03226f908861ff848665deb416d81eea5aaaa693ecf8c388477ae5db287e1794"}},
		{"dynamics", "aalo", 2, runSignature{0x3ff63914f483cafc, 4784000, 596, "49bf7eda7f762efaf04e4f2b05fd29f3bda65f40ada4b4f98b7e27e223a87ee5"}},
		{"dynamics", "saath", 0, runSignature{0x3fd38736c0866d6e, 984000, 123, "a27200dea931a5f846b0ed2c7cfb765a7f872598d7f86397bf9a10a378854dbd"}},
		{"pipelining", "saath", 1, runSignature{0x3fe16186bbffae5a, 4440000, 536, "fc12b68d1b6145e7fab3abed57b629bd2d0e2a2a799d33659c07c903e9cb08f3"}},
		{"pipelining", "saath", 2, runSignature{0x3fe430aebec4cc4d, 3544000, 441, "e5362c0045ea35ff254e3c3d83d33d44baee14db5c8ec7552e0b129522d28df5"}},
		{"pipelining", "varys", 1, runSignature{0x3fdb55e6096d1f76, 4376000, 528, "54cb7c3b6c3c4d8093e0a3ef032721852832355659314bb4c7b80b867dcf8fb3"}},
		{"pipelining", "varys", 2, runSignature{0x3fdef5d645f25299, 3544000, 441, "036bea1bb88f6bdaa6b4553c18068cf27861d2540996ef1fd490f94d0111c302"}},
		{"pipelining", "aalo", 1, runSignature{0x3fe8e9cad4a50863, 4416000, 534, "ed1e81c68979e55135175e85261100991fe831cc92bbe893d69c2300d8f81cef"}},
		{"pipelining", "aalo", 2, runSignature{0x3fef7086f81dfb04, 3560000, 443, "e90afddd8a9181a0eba258aa19493deaad404af5caf75fe6546d144597a6fd13"}},
		{"pipelining", "saath", 0, runSignature{0x3fd039d289a52fd0, 784000, 98, "4d84886d41b42321e7db6a7dffea7299e03468cc8919ccb0b02d3f322cc24a29"}},
	}
	for _, g := range mapEngineGolden {
		goldens = append(goldens, golden{"plain", g.scheduler, g.seed, g.want})
	}
	for _, g := range goldens {
		name := fmt.Sprintf("%s/%s/seed%d", g.config, g.scheduler, g.seed)
		tr := dagTrace()
		if g.seed == 0 {
			name = g.config + "/dag"
		} else {
			tr = Synthesize(goldenSynthConfig(g.seed), fmt.Sprintf("golden-%d", g.seed))
		}
		t.Run(name, func(t *testing.T) {
			if got := signatureOf(t, tr, g.scheduler, configs[g.config]); got != g.want {
				t.Errorf("got  %+v\nwant %+v", got, g.want)
			}
		})
	}
}

// TestEngineModePerCoFlowIdentical drills below the aggregate
// signature: every CoFlow's exact completion time and every flow's FCT
// must match the recorded run, on the harshest configuration (dynamics
// + pipelining together over the DAG workload).
func TestEngineModePerCoFlowIdentical(t *testing.T) {
	cfg := SimConfig{
		Dynamics:   &Dynamics{Seed: 5, StragglerProb: 0.25, Slowdown: 2.5, RestartProb: 0.2},
		Pipelining: &Pipelining{Seed: 9, Frac: 0.4, AvailDelay: 24 * Millisecond},
	}
	for _, g := range []struct{ scheduler, want string }{
		{"saath", "afa52dd0ee9c871cd3443b978987df8d921d51f630cfe640c54a30235f4bd21c"},
		{"aalo", "0d4fa40b738f93dad1669c1d5b4de9947209e10f6f78db8155fe8f4e493dc881"},
		{"uc-tcp", "7775b4669edecbf60e41f472caaf218c3c2ca12e221faa5166809e9eee09d8cd"},
	} {
		t.Run(g.scheduler, func(t *testing.T) {
			res, err := Simulate(dagTrace(), g.scheduler, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, c := range res.CoFlows {
				fmt.Fprintf(h, "%d %d %d %d|", c.ID, c.Arrival, c.DoneAt, c.CCT)
				for j, f := range c.Flows {
					id := coflow.FlowID{CoFlow: c.ID, Index: j}
					fmt.Fprintf(h, "%v %d %d %d;", id, f.Size, f.DoneAt-c.Arrival, f.DoneAt)
				}
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != g.want {
				t.Errorf("per-coflow digest = %s, want %s\n%+v", got, g.want, res.CoFlows)
			}
		})
	}
}
