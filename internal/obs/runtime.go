package obs

import (
	"fmt"

	"saath/internal/report"
)

// RuntimeRecord is one testbed job's out-of-band runtime measurement:
// what the real coordinator did while the job's workload ran through
// it — admission decisions, schedule boundaries, and the wall-clock
// cost of each Schedule call (the paper's Table 2 quantity). Wall
// times live here and only here; the deterministic study exports see
// virtual time exclusively.
type RuntimeRecord struct {
	Index     int    `json:"index"`
	Trace     string `json:"trace"`
	Variant   string `json:"variant,omitempty"`
	Scheduler string `json:"scheduler"`
	Seed      int64  `json:"seed"`

	// Ports is the coordinator's fabric width; Agents the number of
	// in-process agents attached (equal to Ports in testbed runs).
	Ports  int `json:"ports"`
	Agents int `json:"agents"`

	// Admission outcome counts, plus the coflows that completed.
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected,omitempty"`
	Completed int   `json:"completed"`

	// Boundaries is the number of δ sync boundaries driven.
	Boundaries int `json:"boundaries"`

	// Schedule-latency reservoir digest: wall-clock nanoseconds per
	// coordinator Schedule call.
	ScheduleCalls   int   `json:"schedule_calls"`
	ScheduleMeanNs  int64 `json:"schedule_mean_ns"`
	ScheduleP90Ns   int64 `json:"schedule_p90_ns"`
	ScheduleMaxNs   int64 `json:"schedule_max_ns"`
	ScheduleTotalNs int64 `json:"schedule_total_ns"`

	// Where the rest of the coordinator's boundary time went, totals
	// over the job (runtime.PhaseTotals; ScheduleTotalNs above is the
	// schedule phase): merging agent reports, retiring completed coflows,
	// encoding the allocation into per-agent orders, delivering them.
	MergeNs   int64 `json:"merge_ns,omitempty"`
	RetireNs  int64 `json:"retire_ns,omitempty"`
	EncodeNs  int64 `json:"encode_ns,omitempty"`
	DeliverNs int64 `json:"deliver_ns,omitempty"`
}

// RuntimeReport is the testbed's out-of-band section of the
// manifest: one record per job, grid order.
type RuntimeReport struct {
	Records []RuntimeRecord `json:"records"`
}

// RuntimeTable renders the schedule-latency report in the shape of the
// paper's Table 2: per job, cluster size against the coordinator's
// per-Schedule wall-clock cost. Wall times are measurements of this
// machine — the table is informational, never part of the
// deterministic study exports.
func RuntimeTable(title string, rep *RuntimeReport) *report.Table {
	t := &report.Table{Title: title, Headers: []string{
		"trace", "variant", "scheduler", "seed", "ports", "agents",
		"admitted", "rejected", "completed", "boundaries",
		"sched calls", "mean", "p90", "max",
	}}
	if rep == nil {
		return t
	}
	for _, rec := range rep.Records {
		t.AddRow(rec.Trace, rec.Variant, rec.Scheduler, rec.Seed,
			rec.Ports, rec.Agents, rec.Admitted, rec.Rejected,
			rec.Completed, rec.Boundaries, rec.ScheduleCalls,
			fmtNs(rec.ScheduleMeanNs), fmtNs(rec.ScheduleP90Ns), fmtNs(rec.ScheduleMaxNs))
	}
	return t
}

// fmtNs renders nanoseconds at µs/ms granularity — schedule latencies
// range from sub-µs toy runs to ms at 10^5 ports.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
