// Package testbed executes catalog studies through the real
// coordinator instead of the simulator: every job builds a
// runtime.Coordinator on virtual time, attaches one in-process
// agent per port (no sockets — 10^5 agents fit in one process), and
// drives δ sync boundaries until the workload completes. The study
// output (CCTs, makespan) is a pure function of the workload in
// virtual time — byte-identical at any parallelism or sharding — while
// the wall-clock cost of each coordinator Schedule call (the paper's
// Table 2 quantity) flows out-of-band into the obs manifest's runtime
// section.
//
// Admission control is exercised on the system path: registrations
// happen at each coflow's exact virtual arrival time against the
// coordinator's live token bucket and live-coflow count, so a shed
// coflow is an arrival-time decision, never a batch artifact.
package testbed

import (
	"errors"
	"fmt"
	"slices"

	"saath/internal/coflow"
	"saath/internal/obs"
	rt "saath/internal/runtime"
	"saath/internal/sched"
	"saath/internal/sim"
	"saath/internal/sweep"
)

// Config controls one testbed job execution: the coordinator's
// admission front.
type Config struct {
	// Admission is the coordinator's arrival-time admission front; the
	// zero value admits everything.
	Admission rt.AdmissionConfig
}

// maxBoundaries bounds a job whose sim.Config sets no Horizon.
const maxBoundaries = 1 << 20

// RunJob executes one sweep job through the real coordinator and
// returns the simulator-shaped result (virtual time only — it feeds
// the same Summary/shard-merge machinery as simulator jobs) plus the
// out-of-band runtime record. The returned record is valid even on
// error (identity fields filled). A job still live past its
// sim.Config.Horizon, as in the simulator, fails with the horizon
// guard.
func RunJob(j sweep.Job, tc Config) (*sim.Result, obs.RuntimeRecord, error) {
	rec := obs.RuntimeRecord{
		Index: j.Index, Trace: j.Trace, Variant: j.Variant,
		Scheduler: j.Scheduler, Seed: j.Seed,
	}
	if j.Telemetry.Enabled {
		return nil, rec, fmt.Errorf("testbed: job %s: per-interval telemetry is simulator-only", j.Key())
	}
	if j.Config.Dynamics != nil || j.Config.Pipelining != nil {
		return nil, rec, fmt.Errorf("testbed: job %s: cluster dynamics/pipelining are simulator-only", j.Key())
	}
	if j.Gen == nil {
		return nil, rec, fmt.Errorf("testbed: job %s has no trace generator", j.Key())
	}
	s, err := sched.New(j.Scheduler, j.Params)
	if err != nil {
		return nil, rec, fmt.Errorf("testbed: job %s: %w", j.Key(), err)
	}
	tr := j.Gen()
	tr.SortByArrival()

	delta := j.Config.Delta
	if delta <= 0 {
		delta = 8 * coflow.Millisecond
	}
	portRate := j.Config.PortRate
	if portRate <= 0 {
		portRate = coflow.GbpsRate(1)
	}
	coord, err := rt.NewCoordinator(rt.CoordinatorConfig{
		Scheduler: s,
		NumPorts:  tr.NumPorts,
		PortRate:  portRate,
		Admission: tc.Admission,
	})
	if err != nil {
		return nil, rec, fmt.Errorf("testbed: job %s: %w", j.Key(), err)
	}

	agents := make([]*rt.InprocAgent, tr.NumPorts)
	for i := range agents {
		if agents[i], err = coord.AttachInproc(i); err != nil {
			return nil, rec, fmt.Errorf("testbed: job %s: %w", j.Key(), err)
		}
	}
	rec.Ports, rec.Agents = tr.NumPorts, len(agents)

	maxB := maxBoundaries
	if j.Config.Horizon > 0 {
		maxB = int(j.Config.Horizon/delta) + 1
	}

	specs := tr.Specs // arrival-sorted
	cur := 0
	boundaries := 0
	// busy lists the ports whose agent may hold flows, in the order they
	// joined: a boundary steps and reports these, not the cluster. A port
	// joins when an admitted coflow sends from it and leaves once its
	// agent holds nothing after a schedule push.
	var busy []int
	isBusy := make([]bool, len(agents))
	var reporting []*rt.InprocAgent // busy's agents, reported in one batch
	for n := 0; ; n++ {
		if n > maxB {
			return nil, rec, fmt.Errorf("testbed: job %s: still live after %d boundaries (horizon guard)", j.Key(), n)
		}
		bound := coflow.Time(int64(n) * int64(delta))
		if n > 0 {
			// Interval (n-1)δ → nδ: flows move under the schedule
			// pushed at the previous boundary — the same one-δ
			// pipelining lag the real agents have.
			for _, p := range busy {
				agents[p].Step(delta)
			}
		}
		// Arrivals inside the interval register at their exact virtual
		// time: the admission bucket refills to that instant and the
		// decision is made against live coordinator state.
		for cur < len(specs) && specs[cur].Arrival <= bound {
			sp := specs[cur]
			cur++
			if err := coord.Register(sp, sp.Arrival); errors.Is(err, rt.ErrAdmission) {
				continue
			} else if err != nil {
				return nil, rec, fmt.Errorf("testbed: job %s: register coflow %d: %w", j.Key(), sp.ID, err)
			}
			for _, f := range sp.Flows {
				if !isBusy[f.Src] {
					isBusy[f.Src] = true
					busy = append(busy, int(f.Src))
				}
			}
		}
		if n > 0 {
			reporting = reporting[:0]
			for _, p := range busy {
				reporting = append(reporting, agents[p])
			}
			coord.ReportInproc(reporting, bound)
		}
		live := coord.StepSchedule(bound)
		boundaries++
		busy = slices.DeleteFunc(busy, func(p int) bool {
			isBusy[p] = agents[p].FlowCount() > 0
			return !isBusy[p]
		})
		if cur == len(specs) && live == 0 && (n > 0 || len(specs) == 0) {
			break
		}
	}

	results := coord.Results() // ID-sorted, deterministic
	res := &sim.Result{
		Scheduler: j.Scheduler,
		Trace:     tr.Name,
		Ports:     tr.NumPorts,
		Intervals: boundaries,
	}
	res.CoFlows = make([]sim.CoFlowResult, 0, len(results))
	for _, r := range results {
		res.CoFlows = append(res.CoFlows, sim.CoFlowResult{
			ID:      r.ID,
			Arrival: r.RegisteredAt, // registered at its exact virtual arrival
			DoneAt:  r.CompletedAt,
			CCT:     r.CCT,
			Width:   r.Width,
			Bytes:   r.Bytes,
		})
		res.Makespan = max(res.Makespan, r.CompletedAt)
	}
	// Wall-clock coordinator measurements go into the runtime record
	// only — res must stay a pure function of the workload.
	admitted, rejected := coord.AdmissionStats()
	calls, mean, max, p90 := coord.ScheduleLatency()
	phases := coord.Phases()
	rec.Admitted, rec.Rejected = admitted, rejected
	rec.Completed = len(results)
	rec.Boundaries = boundaries
	rec.ScheduleCalls = calls
	rec.ScheduleMeanNs = mean.Nanoseconds()
	rec.ScheduleMaxNs = max.Nanoseconds()
	rec.ScheduleP90Ns = p90.Nanoseconds()
	rec.ScheduleTotalNs = phases.Schedule.Nanoseconds()
	rec.MergeNs = phases.Merge.Nanoseconds()
	rec.RetireNs = phases.Retire.Nanoseconds()
	rec.EncodeNs = phases.Encode.Nanoseconds()
	rec.DeliverNs = phases.Deliver.Nanoseconds()
	return res, rec, nil
}
