package main

// metricDef names one metric of BENCHMARK.json. The tables below are
// the benchmark's single source for names, units, directions and
// bounds; bench_test.go holds them equal to BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the system sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"coflows_per_s", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.20},
	{"cct_p50_s", "s", "lower", 0.10},
	{"cct_p90_s", "s", "lower", 0.15},
	{"cct_avg_s", "s", "lower", 0.06},
}

// perLayer is measured from outside each layer in the traced run. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "trace.synthesize_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.coflows", Unit: "count", Better: "higher"},
	{Name: "trace.flows", Unit: "count", Better: "higher"},

	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.engine_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.engine_self_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.engine_self_us_per_epoch", Unit: "us", Better: "lower"},
	{Name: "sim.epochs", Unit: "count", Better: "lower"},
	{Name: "sim.epochs_per_coflow", Unit: "count", Better: "lower"},
	{Name: "sim.speedup_p50_vs_aalo", Unit: "ratio", Better: "higher"},
	{Name: "sim.speedup_p90_vs_aalo", Unit: "ratio", Better: "higher"},
	{Name: "fidelity_gap_p50", Unit: "ratio", Better: "lower"},
	{Name: "fidelity_gap_p90", Unit: "ratio", Better: "lower"},

	{Name: "core.schedule_s", Unit: "s", Better: "lower"},
	{Name: "core.schedule_share", Unit: "ratio", Better: "lower"},
	{Name: "core.schedule_calls", Unit: "count", Better: "lower"},
	{Name: "core.schedule_mean_us", Unit: "us", Better: "lower"},
	{Name: "core.schedule_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.schedule_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.schedule_max_us", Unit: "us", Better: "lower"},
	{Name: "core.schedule_over_delta", Unit: "count", Better: "lower"},
	{Name: "core.arrive_depart_ms", Unit: "ms", Better: "lower"},
	{Name: "aalo.schedule_s", Unit: "s", Better: "lower"},
	{Name: "aalo.schedule_mean_us", Unit: "us", Better: "lower"},
	{Name: "aalo.schedule_p99_us", Unit: "us", Better: "lower"},

	{Name: "sched.active_mean", Unit: "count", Better: "lower"},
	{Name: "sched.active_max", Unit: "count", Better: "lower"},
	{Name: "sched.changed_epoch_ratio", Unit: "ratio", Better: "higher"},

	{Name: "telemetry.observe_s", Unit: "s", Better: "lower"},
	{Name: "telemetry.observe_us_per_epoch", Unit: "us", Better: "lower"},
	{Name: "telemetry.export_ms", Unit: "ms", Better: "lower"},
	{Name: "telemetry.export_bytes", Unit: "bytes", Better: "lower"},

	{Name: "sweep.run_s", Unit: "s", Better: "lower"},
	{Name: "sweep.jobs", Unit: "count", Better: "higher"},
	{Name: "sweep.jobs_failed", Unit: "count", Better: "lower"},
	{Name: "sweep.job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.job_max_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.pool_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "sweep.export_json_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.export_metrics_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.export_bytes", Unit: "bytes", Better: "lower"},
	{Name: "study.shard_write_ms", Unit: "ms", Better: "lower"},
	{Name: "study.shard_read_ms", Unit: "ms", Better: "lower"},
	{Name: "study.shard_bytes", Unit: "bytes", Better: "lower"},
	{Name: "study.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "study.tables_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render_bytes", Unit: "bytes", Better: "lower"},

	{Name: "testbed.runjob_s", Unit: "s", Better: "lower"},
	{Name: "runtime.schedule_s", Unit: "s", Better: "lower"},
	{Name: "runtime.schedule_mean_us", Unit: "us", Better: "lower"},
	{Name: "runtime.schedule_p90_us", Unit: "us", Better: "lower"},
	{Name: "runtime.self_s", Unit: "s", Better: "lower"},
	{Name: "runtime.us_per_boundary", Unit: "us", Better: "lower"},
	{Name: "runtime.alloc_kb_per_boundary", Unit: "KB", Better: "lower"},
	{Name: "runtime.boundaries", Unit: "count", Better: "lower"},
	{Name: "runtime.admitted", Unit: "count", Better: "higher"},
	{Name: "runtime.rejected", Unit: "count", Better: "lower"},

	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.mallocs_per_coflow", Unit: "count", Better: "lower"},
	{Name: "host.tracing_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_ms", Unit: "ms", Better: "lower"},
}

// The abstract's FB numbers the fidelity gap is taken against: the
// median and P90 per-coflow speedup of Saath over Aalo.
const (
	paperSpeedupP50 = 1.53
	paperSpeedupP90 = 4.5
)

// metricValue is one reported metric.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"` // one per repetition, where the value is their median
}
