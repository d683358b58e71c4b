package testbed

import (
	"saath/internal/obs"
	"saath/internal/sweep"
)

// Exec returns the job body that runs a study through the real
// coordinator (see RunJob) under tc: declare it on a study with
// study.WithExec and every runner — pool or shard — executes its jobs
// on the system path. The wall-clock runtime record
// rides out on the job result, beside Elapsed.
func Exec(tc Config) sweep.ExecFunc {
	return func(j sweep.Job, jr *sweep.JobResult, _ *obs.Span, _ *obs.EngineCounters) error {
		res, rec, err := RunJob(j, tc)
		if err != nil {
			return err
		}
		jr.Res, jr.Runtime = res, &rec
		return nil
	}
}
