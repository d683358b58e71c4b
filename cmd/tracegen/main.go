// tracegen synthesizes CoFlow workloads in the coflow-benchmark trace
// format (the format of the public Facebook trace).
//
// Usage:
//
//	tracegen -kind fb -seed 1 -out fb.txt
//	tracegen -kind custom -ports 64 -coflows 300 -gap 50ms -out my.txt
//	tracegen -kind incast -fanin 16 -skew 1.0 -hotspots 4 -summary -out incast.txt
//	tracegen -kind broadcast -fanout 16 -out bcast.txt
//
// The incast family fans -fanin senders into one aggregator port per
// CoFlow; broadcast fans one root port out to -fanout receivers. Both
// rotate through -hotspots hot ports, concentrating contention so the
// simulator's telemetry (queue occupancy, head-of-line blocking) has
// something to show.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"saath/internal/coflow"
	"saath/internal/trace"
)

func main() {
	var (
		kind     = flag.String("kind", "fb", `workload family: "fb", "osp", "incast", "broadcast", or "custom"`)
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "-", `output path ("-" for stdout)`)
		ports    = flag.Int("ports", 0, "[custom/incast/broadcast] cluster size (0 = family default)")
		coflows  = flag.Int("coflows", 0, "[custom/incast/broadcast] number of coflows (0 = family default)")
		gap      = flag.Duration("gap", 0, "[custom/incast/broadcast] mean inter-arrival (0 = family default)")
		fanIn    = flag.Int("fanin", 0, "[incast] senders per coflow (0 = default 12)")
		fanOut   = flag.Int("fanout", 0, "[broadcast] receivers per coflow (0 = default 12)")
		skew     = flag.Float64("skew", -1, "[incast/broadcast] log-normal sigma of flow sizes (<0 = default 0.5; 0 = equal)")
		hotspots = flag.Int("hotspots", -1, "[incast/broadcast] distinct hot aggregator/root ports (<0 = default 6; 0 = all ports)")
		summary  = flag.Bool("summary", false, "print workload statistics to stderr")
	)
	flag.Parse()

	var tr *trace.Trace
	switch *kind {
	case "fb":
		tr = trace.SynthFB(*seed)
	case "osp":
		tr = trace.SynthOSP(*seed)
	case "incast":
		cfg := fanConfig(trace.DefaultIncastConfig(*seed), *ports, *coflows, *gap, *fanIn, *skew, *hotspots)
		var err error
		if tr, err = trace.SynthesizeIncast(cfg, "incast"); err != nil {
			fatal(err)
		}
	case "broadcast":
		cfg := fanConfig(trace.DefaultBroadcastConfig(*seed), *ports, *coflows, *gap, *fanOut, *skew, *hotspots)
		var err error
		if tr, err = trace.SynthesizeBroadcast(cfg, "broadcast"); err != nil {
			fatal(err)
		}
	case "custom":
		cfg := trace.DefaultFBConfig(*seed)
		if *ports > 0 {
			cfg.NumPorts = *ports
		} else {
			cfg.NumPorts = 64
		}
		if *coflows > 0 {
			cfg.NumCoFlows = *coflows
		} else {
			cfg.NumCoFlows = 200
		}
		if *gap > 0 {
			cfg.MeanInterArrival = coflow.Time(gap.Microseconds()) * coflow.Microsecond
		} else {
			cfg.MeanInterArrival = 100 * coflow.Millisecond
		}
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		tr = trace.Synthesize(cfg, "custom")
	default:
		fatal(fmt.Errorf("unknown kind %q", *kind))
	}

	if *summary {
		s := trace.Summarize(tr)
		fmt.Fprintf(os.Stderr,
			"%s: %d coflows / %d ports / %.1f GB; single=%.0f%% equal=%.0f%% unequal=%.0f%%; max width %d\n",
			tr.Name, s.NumCoFlows, s.NumPorts, float64(s.TotalBytes)/float64(coflow.GB),
			100*s.SingleFrac, 100*s.EqualFrac, 100*s.UnequalFrac, s.MaxWidth)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.Write(w, tr); err != nil {
		fatal(err)
	}
}

// fanConfig overlays the non-default flags onto a family default;
// values the generator cannot satisfy are reported by the generator's
// own validation (see trace.FanConfig.Validate).
func fanConfig(cfg trace.FanConfig, ports, coflows int, gap time.Duration, degree int, skew float64, hotspots int) trace.FanConfig {
	if ports > 0 {
		cfg.NumPorts = ports
	}
	if coflows > 0 {
		cfg.NumCoFlows = coflows
	}
	if gap > 0 {
		cfg.MeanInterArrival = coflow.Time(gap.Microseconds()) * coflow.Microsecond
	}
	if degree > 0 {
		cfg.Degree = degree
	}
	if skew >= 0 {
		cfg.Skew = skew
	}
	if hotspots >= 0 {
		cfg.Hotspots = hotspots
	}
	return cfg
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
