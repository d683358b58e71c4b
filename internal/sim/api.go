package sim

import (
	"fmt"

	"saath/internal/sched"
	"saath/internal/trace"
)

// Engine is a reusable, validated simulation engine: one Config,
// any number of independent Run calls. Engines are stateless between
// runs and safe to share across goroutines as long as each Run gets
// its own trace clone and scheduler instance (the same contract the
// free Run function has always had).
type Engine interface {
	// Run replays tr under scheduler s and returns the outcome. The
	// trace is mutated during simulation — pass a private clone when
	// the caller retains it.
	Run(tr *trace.Trace, s sched.Scheduler) (*Result, error)
	// Config returns the engine's validated configuration (defaults
	// not yet applied — zero fields still mean "paper default").
	Config() Config
}

// New validates cfg and returns its Engine: configuration mistakes
// (negative δ, out-of-range dynamics fractions) surface here as
// descriptive errors instead of being silently defaulted or exploding
// mid-run.
func New(cfg Config) (Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return simEngine{cfg: cfg}, nil
}

// simEngine implements Engine; the per-run state lives in the
// unexported engine struct built inside Run.
type simEngine struct {
	cfg Config
}

func (e simEngine) Config() Config { return e.cfg }

func (e simEngine) Run(tr *trace.Trace, s sched.Scheduler) (*Result, error) {
	return run(tr, s, e.cfg)
}

// Validate reports configuration errors: negative Delta/PortRate/
// Horizon, out-of-range Dynamics/Pipelining probabilities and
// fractions. Zero values are not errors — they mean "use the paper
// default" throughout (see withDefaults). Run and New both call it, so
// a bad config fails at construction with a message naming the field
// rather than mid-simulation.
func (c Config) Validate() error {
	if c.Delta < 0 {
		return fmt.Errorf("sim: negative Delta %v", c.Delta)
	}
	if c.PortRate < 0 {
		return fmt.Errorf("sim: negative PortRate %v B/s", float64(c.PortRate))
	}
	if c.Horizon < 0 {
		return fmt.Errorf("sim: negative Horizon %v", c.Horizon)
	}
	if d := c.Dynamics; d != nil {
		if d.StragglerProb < 0 || d.StragglerProb > 1 {
			return fmt.Errorf("sim: Dynamics.StragglerProb %g outside [0,1]", d.StragglerProb)
		}
		if d.RestartProb < 0 || d.RestartProb > 1 {
			return fmt.Errorf("sim: Dynamics.RestartProb %g outside [0,1]", d.RestartProb)
		}
		if d.Slowdown < 0 {
			return fmt.Errorf("sim: negative Dynamics.Slowdown %g", d.Slowdown)
		}
		if d.RestartAt < 0 || d.RestartAt >= 1 {
			if d.RestartAt != 0 { // zero means "default 0.5"
				return fmt.Errorf("sim: Dynamics.RestartAt %g outside (0,1)", d.RestartAt)
			}
		}
	}
	if p := c.Pipelining; p != nil {
		if p.Frac < 0 || p.Frac > 1 {
			return fmt.Errorf("sim: Pipelining.Frac %g outside [0,1]", p.Frac)
		}
		if p.AvailDelay < 0 {
			return fmt.Errorf("sim: negative Pipelining.AvailDelay %v", p.AvailDelay)
		}
	}
	return nil
}
