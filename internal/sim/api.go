package sim

import "fmt"

// Validate reports configuration errors: negative Delta/PortRate/
// Horizon, out-of-range Dynamics/Pipelining probabilities and
// fractions. Zero values are not errors — they mean "use the paper
// default" throughout (see withDefaults). Run calls it first, so a bad
// config fails before the trace is loaded with a message naming the
// field rather than mid-simulation.
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
