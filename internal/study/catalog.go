package study

import (
	"fmt"

	"saath/internal/coflow"
	"saath/internal/sweep"
	"saath/internal/telemetry"
	"saath/internal/trace"
)

// fanDegreeBase is the incast configuration the fan-degree study's
// variants specialize: modest scale (a full run of the 24-job grid
// stays in seconds) with enough load that hotspot queues visibly
// build. Degree/Hotspots/Skew are overwritten per variant.
func fanDegreeBase(seed int64) trace.FanConfig {
	return trace.FanConfig{
		Seed:             seed,
		NumPorts:         36,
		NumCoFlows:       90,
		MeanInterArrival: 20 * coflow.Millisecond,
		Degree:           12,
		Skew:             0.5,
		Hotspots:         4,
		MinSize:          coflow.MB,
		MaxSize:          96 * coflow.MB,
	}
}

// capacityLoads is the capacity study's offered-rate grid, in
// multiples of the base rate of capacityCfg.
var capacityLoads = []float64{1, 2, 3, 4, 5, 6, 7, 8}

// capacityCfg is the capacity study's workload at load factor a: a
// fixed ~30s arrival window whose offered coflow rate scales with a
// (count × a, inter-arrival ÷ a). Scaling the rate at fixed window —
// rather than compressing a fixed trace — keeps work arriving for the
// whole window past saturation, so the backlog and P99 CCT grow
// without a batch-makespan ceiling and the knee is detectable. The
// fabric is sized (12 ports) so the grid's offered byte rate crosses
// aggregate capacity near its middle, and the size distribution is
// narrowed (32–128 MB instead of the FB 1 MB–20 GB span) so pre-knee
// P99 sits flat at the intrinsic service time — with the heavy FB
// tail, M/G/1-style waiting (∝ E[S²]) grows linearly in load from the
// first grid point and the curve never shows a corner to detect.
func capacityCfg(seed int64, a float64) trace.SynthConfig {
	cfg := trace.DefaultFBConfig(seed)
	cfg.NumPorts = 12
	cfg.NumCoFlows = int(150*a + 0.5)
	cfg.MeanInterArrival = coflow.Time(float64(200*coflow.Millisecond) / a)
	cfg.MinSmall = 32 * coflow.MB
	cfg.MaxSmall = 64 * coflow.MB
	cfg.MinLarge = 64 * coflow.MB
	cfg.MaxLarge = 128 * coflow.MB
	return cfg
}

// The catalog registers the full-scale studies beside the figures that
// every binary with the policy packages linked in can run by name
// (saath-sim -study). Each is a plain declaration whose description
// names the ROADMAP question it answers: one study per question, and a
// study that repeats a figure or answers nothing does not belong here.
func init() {
	Register("fan-degree",
		"ROADMAP 26's telemetry showcase: how fan-in degree × hotspot count × skew drive queue buildup and CCT under aalo vs saath, through every probe (Fig. 4-style queue transitions, placement, per-port heatmap)",
		func() (*Study, error) {
			var variants []sweep.Variant
			for _, deg := range []int{4, 12, 24} {
				for _, hot := range []int{2, 6} {
					for _, skew := range []float64{0, 1} {
						deg, hot, skew := deg, hot, skew
						variants = append(variants, sweep.Variant{
							Name: fmt.Sprintf("deg=%d,hot=%d,skew=%g", deg, hot, skew),
							MutateSeeded: func(tr *trace.Trace, seed int64) {
								cfg := fanDegreeBase(seed)
								cfg.Degree, cfg.Hotspots, cfg.Skew = deg, hot, skew
								gen, err := trace.SynthesizeIncast(cfg, tr.Name)
								if err != nil {
									panic("study fan-degree: " + err.Error())
								}
								*tr = *gen
							},
						})
					}
				}
			}
			return New("fan-degree",
				WithTraces(sweep.SynthSource("fan", func(seed int64) *trace.Trace {
					// Placeholder draw; every variant regenerates it with
					// its own degree/hotspot/skew point (MutateSeeded).
					gen, err := trace.SynthesizeIncast(fanDegreeBase(seed), "fan")
					if err != nil {
						panic("study fan-degree: " + err.Error())
					}
					return gen
				})),
				WithSchedulers("aalo", "saath"),
				WithParamGrid(variants...),
				WithBaseline("aalo"),
				WithTelemetry(telemetry.Spec{
					Enabled:          true,
					QueueTransitions: true,
					PerFlowPlacement: true,
					PortHeatmap:      true,
				}),
				WithDerived(
					DerivedCCT("fan-degree — per-variant CCT"),
					DerivedSpeedup("fan-degree — per-coflow speedup over aalo", ""),
					DerivedTelemetry("fan-degree — occupancy/HOL telemetry"),
					DerivedQueueTransitions("fan-degree — queue transitions (Fig. 4-style)"),
					DerivedPortHeatmap("fan-degree — per-port occupancy heatmap", 4),
				),
			)
		})

	Register("capacity",
		"ROADMAP 16(b)'s load axis: how many coflows/s each scheduler sustains before P99 CCT departs linearity (offered-rate sweep with knee detection)",
		func() (*Study, error) {
			var variants []sweep.Variant
			for _, a := range capacityLoads {
				a := a
				variants = append(variants, sweep.Variant{
					Name: fmt.Sprintf("A=%g", a),
					MutateSeeded: func(tr *trace.Trace, seed int64) {
						*tr = *trace.Synthesize(capacityCfg(seed, a), tr.Name)
					},
				})
			}
			return New("capacity",
				WithTraces(sweep.SynthSource("fb-cap", func(seed int64) *trace.Trace {
					// Placeholder draw; every variant regenerates it at its
					// own offered rate (MutateSeeded).
					return trace.Synthesize(capacityCfg(seed, 1), "fb-cap")
				})),
				WithSchedulers("aalo", "saath"),
				WithSeeds(1, 2),
				WithParamGrid(variants...),
				WithBaseline("aalo"),
				WithDerived(
					DerivedCCT("capacity — per-load CCT"),
					DerivedCapacityReport("capacity", 0),
				),
			)
		})
}
