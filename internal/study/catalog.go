package study

import (
	"fmt"

	"saath/internal/coflow"
	"saath/internal/report"
	"saath/internal/sim"
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

// mixFBComponent is the trace-mix study's shuffle-shaped ingredient: a
// reduced FB-like draw sharing the incast component's 48-port space.
func mixFBComponent(seed int64) *trace.Trace {
	cfg := trace.DefaultFBConfig(seed)
	cfg.NumPorts = 48
	cfg.NumCoFlows = 220
	cfg.MaxLarge = 2 * coflow.GB // trim the tail so the ratio sweep runs in seconds
	return trace.Synthesize(cfg, "fb-mix")
}

// mixIncastComponent is the fan-in ingredient, matched to the same
// port space so the two workloads genuinely share hotspots.
func mixIncastComponent(seed int64) *trace.Trace {
	tr, err := trace.SynthesizeIncast(trace.FanConfig{
		Seed:             seed,
		NumPorts:         48,
		NumCoFlows:       220,
		MeanInterArrival: 20 * coflow.Millisecond,
		Degree:           10,
		Skew:             0.6,
		Hotspots:         5,
		MinSize:          coflow.MB,
		MaxSize:          128 * coflow.MB,
	}, "incast-mix")
	if err != nil {
		panic("study trace-mix: " + err.Error())
	}
	return tr
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

// The catalog registers the canonical full-scale studies every binary
// with the policy packages linked in can run by name (saath-sim
// -study). Each is a plain declaration — the
// scenario PRs the ROADMAP calls for add entries here instead of
// hand-rolled loops.
func init() {
	Register("headline",
		"Fig 9-style headline: saath vs varys/aalo/uc-tcp on the FB and OSP workloads, 3 seeds",
		func() (*Study, error) {
			return New("headline",
				WithDescription("per-CoFlow CCT speedup using Saath over the paper's baselines"),
				WithTraces(
					sweep.SynthSource("fb", trace.SynthFB),
					sweep.SynthSource("osp", trace.SynthOSP),
				),
				WithSchedulers("aalo", "varys", "uc-tcp", "saath"),
				WithSeeds(1, 2, 3),
				WithBaseline("aalo"),
				WithDerived(
					DerivedCCT("headline — per-scheduler CCT"),
					DerivedSpeedup("headline — per-coflow speedup over aalo", ""),
					DerivedCCTCDF("headline", 25),
				),
			)
		})

	Register("incast-telemetry",
		"incast hotspot workload under aalo vs saath with full per-interval telemetry",
		func() (*Study, error) {
			return New("incast-telemetry",
				WithDescription("where the contention lives: queue buildup, HOL blocking and k_c on a fan-in workload"),
				WithTraces(sweep.SynthSource("incast", trace.SynthIncast)),
				WithSchedulers("aalo", "saath"),
				WithSeeds(1, 2),
				WithBaseline("aalo"),
				WithTelemetry(telemetry.Spec{Enabled: true}),
				WithDerived(
					DerivedCCT("incast-telemetry — per-scheduler CCT"),
					DerivedSpeedup("incast-telemetry — per-coflow speedup over aalo", ""),
					DerivedTelemetry("incast-telemetry — telemetry (per-interval)"),
					derivedTelemetryDrilldown("incast-telemetry"),
				),
			)
		})

	Register("fan-degree",
		"incast fan-in sweep: degree × hotspot count × skew under aalo vs saath, with Fig. 4-style queue-transition and per-port heatmap telemetry",
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
				WithDescription("how fan-in width and hotspot concentration drive queue buildup and CCT"),
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

	Register("trace-mix",
		"fb + incast interleaved at swept mix ratios (trace.Mix), with queue-transition and heatmap telemetry",
		func() (*Study, error) {
			var sources []sweep.TraceSource
			for _, pct := range []int{0, 25, 50, 75, 100} {
				pct := pct
				name := fmt.Sprintf("mix-incast%d", pct)
				sources = append(sources, sweep.SynthSource(name, func(seed int64) *trace.Trace {
					tr, err := trace.Mix(name, trace.MixConfig{
						Seed:             seed,
						NumCoFlows:       220,
						MeanInterArrival: 25 * coflow.Millisecond,
					},
						trace.MixComponent{Name: "fb", Weight: float64(100 - pct), Gen: mixFBComponent},
						trace.MixComponent{Name: "incast", Weight: float64(pct), Gen: mixIncastComponent},
					)
					if err != nil {
						panic("study trace-mix: " + err.Error())
					}
					return tr
				}))
			}
			return New("trace-mix",
				WithDescription("how much fan-in a shuffle-dominated cluster absorbs before spatial contention dominates CCT"),
				WithTraces(sources...),
				WithSchedulers("aalo", "saath"),
				WithBaseline("aalo"),
				WithTelemetry(telemetry.Spec{
					Enabled:          true,
					QueueTransitions: true,
					PortHeatmap:      true,
				}),
				WithDerived(
					DerivedCCT("trace-mix — per-ratio CCT"),
					DerivedSpeedup("trace-mix — per-coflow speedup over aalo", ""),
					DerivedQueueTransitions("trace-mix — queue transitions (Fig. 4-style)"),
					DerivedPortHeatmap("trace-mix — per-port occupancy heatmap", 4),
				),
			)
		})

	Register("capacity",
		"offered-rate sweep with knee detection: how many coflows/s each scheduler sustains before P99 CCT departs linearity",
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
				WithDescription("saturation knee and sustainable coflows/s per scheduler on a reduced FB workload"),
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

	Register("delta-sensitivity",
		"Fig 14c-style sweep of the sync interval δ on the FB workload",
		func() (*Study, error) {
			var variants []sweep.Variant
			for _, d := range []coflow.Time{2, 4, 8, 12, 16, 20} {
				variants = append(variants, sweep.Variant{
					Name:   fmt.Sprintf("delta=%dms", d),
					Config: sim.Config{Delta: d * coflow.Millisecond},
				})
			}
			return New("delta-sensitivity",
				WithDescription("how coarse the coordination interval can get before the speedup decays"),
				WithTraces(sweep.SynthSource("fb", trace.SynthFB)),
				WithSchedulers("aalo", "saath"),
				WithParamGrid(variants...),
				WithBaseline("aalo"),
				WithDerived(
					DerivedCCT("delta-sensitivity — per-scheduler CCT"),
					DerivedSpeedup("delta-sensitivity — per-coflow speedup over aalo", ""),
				),
			)
		})
}

// derivedTelemetryDrilldown renders the per-run detail behind a
// study's pooled telemetry summary: the hot-port queue series, the
// HOL-blocking series and the contention histogram of every
// (scheduler, seed) run, in grid order.
func derivedTelemetryDrilldown(name string) Derived {
	return func(st *Study, sum *sweep.Summary) ([]*report.Table, error) {
		var tables []*report.Table
		for _, jt := range sum.Telemetry() {
			m, sn := jt.Metrics, jt.Scheduler
			if t := m.SeriesTable(
				fmt.Sprintf("Telemetry — ingress queue max over time (%s, %s, seed %d)", name, sn, jt.Seed),
				telemetry.SeriesIngressQueueMax, cdfPoints); t != nil {
				tables = append(tables, t)
			}
			if t := m.SeriesTable(
				fmt.Sprintf("Telemetry — HOL-blocked CoFlows over time (%s, %s, seed %d)", name, sn, jt.Seed),
				telemetry.SeriesBlockedCoFlows, cdfPoints); t != nil {
				tables = append(tables, t)
			}
			if t := m.HistogramTable(
				fmt.Sprintf("Telemetry — contention k_c histogram (%s, %s, seed %d)", name, sn, jt.Seed),
				telemetry.HistContention); t != nil {
				tables = append(tables, t)
			}
		}
		return tables, nil
	}
}
