package sim

import (
	"strings"
	"testing"

	"saath/internal/coflow"
	"saath/internal/sched"
	"saath/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; empty means valid
	}{
		{"zero-is-default", Config{}, ""},
		{"explicit-sane", Config{
			Delta: 4 * coflow.Millisecond, PortRate: coflow.GbpsRate(10),
			Horizon:    coflow.Second,
			Dynamics:   &Dynamics{StragglerProb: 0.5, Slowdown: 2, RestartProb: 0.1, RestartAt: 0.5},
			Pipelining: &Pipelining{Frac: 1, AvailDelay: coflow.Millisecond},
		}, ""},
		{"negative-delta", Config{Delta: -1}, "Delta"},
		{"negative-port-rate", Config{PortRate: -5}, "PortRate"},
		{"negative-horizon", Config{Horizon: -coflow.Second}, "Horizon"},
		{"straggler-prob", Config{Dynamics: &Dynamics{StragglerProb: 1.5}}, "StragglerProb"},
		{"restart-prob", Config{Dynamics: &Dynamics{RestartProb: -0.1}}, "RestartProb"},
		{"negative-slowdown", Config{Dynamics: &Dynamics{Slowdown: -2}}, "Slowdown"},
		{"restart-at-high", Config{Dynamics: &Dynamics{RestartAt: 1}}, "RestartAt"},
		{"restart-at-negative", Config{Dynamics: &Dynamics{RestartAt: -0.5}}, "RestartAt"},
		{"pipelining-frac", Config{Pipelining: &Pipelining{Frac: 2}}, "Frac"},
		{"pipelining-delay", Config{Pipelining: &Pipelining{AvailDelay: -1}}, "AvailDelay"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestNewRejectsBadConfig pins validation to the entry point: Run
// refuses a bad config before it simulates anything.
func TestNewRejectsBadConfig(t *testing.T) {
	s, err := sched.New("saath", sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "t", NumPorts: 2, Specs: []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 1}}},
	}}
	if _, err := Run(tr, s, Config{Dynamics: &Dynamics{StragglerProb: 2}}); err == nil {
		t.Error("Run accepted an out-of-range StragglerProb")
	}
}
