package study

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"saath/internal/obs"
	"saath/internal/sweep"
)

// Runner is a pluggable execution backend for a study's jobs. A runner
// may execute a subset of the jobs (sharded backends), but it must
// preserve each job's grid Index — collectors key on it, and the merge
// step reassembles shards by it.
type Runner interface {
	Run(ctx context.Context, jobs []sweep.Job, collectors []sweep.Collector) (*sweep.Result, error)
}

// Pool runs every job in-process on the bounded worker pool of
// internal/sweep. The zero value uses default parallelism
// (runtime.NumCPU()).
type Pool struct {
	// Parallel bounds the worker pool; <=0 means runtime.NumCPU().
	Parallel int
	// Progress, if set, is called after every job completes.
	Progress sweep.ProgressFunc
	// Observer, when non-nil, collects the run's obs manifest (per-job
	// spans and engine counters). Out-of-band: attaching it never
	// changes study output.
	Observer *obs.Recorder
}

// Run implements Runner.
func (p Pool) Run(ctx context.Context, jobs []sweep.Job, collectors []sweep.Collector) (*sweep.Result, error) {
	return sweep.Run(ctx, jobs, sweep.Options{
		Parallel:   p.Parallel,
		Progress:   p.Progress,
		Collectors: collectors,
		Observer:   p.Observer,
	}), nil
}

// Sharded runs shard Index of Count: the jobs whose grid index ≡ Index
// (mod Count), striped so every shard gets an even mix of the grid
// (contiguous splits would hand one shard all the expensive variants).
// Per-job RNG seeds derive from the job identity, never from what else
// runs in the process, so the union of all shards is byte-identical to
// a single-process run once merged (Result.WriteShard + MergeShards).
type Sharded struct {
	// Index is this process's shard number, in [0, Count).
	Index int
	// Count is the total number of shards (>= 1).
	Count int
	// Pool executes the shard's jobs in-process.
	Pool Pool
}

// ParseShard parses the CLI "i/n" shard notation ("0/4" is the first
// of four shards). The whole string must be consumed — "1/2/4" is an
// error, not shard 1 of 2.
func ParseShard(s string) (Sharded, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Sharded{}, fmt.Errorf("study: bad shard %q (want i/n, e.g. 0/4)", s)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return Sharded{}, fmt.Errorf("study: bad shard index in %q: %w", s, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return Sharded{}, fmt.Errorf("study: bad shard count in %q: %w", s, err)
	}
	sh := Sharded{Index: i, Count: n}
	return sh, sh.validate()
}

func (s Sharded) validate() error {
	if s.Count < 1 {
		return fmt.Errorf("study: shard count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("study: shard index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Jobs returns the subset of jobs this shard owns, grid indices
// preserved.
func (s Sharded) Jobs(jobs []sweep.Job) []sweep.Job {
	var own []sweep.Job
	for _, j := range jobs {
		if j.Index%s.Count == s.Index {
			own = append(own, j)
		}
	}
	return own
}

// Run implements Runner: it executes only this shard's slice of the
// grid.
func (s Sharded) Run(ctx context.Context, jobs []sweep.Job, collectors []sweep.Collector) (*sweep.Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s.Pool.Run(ctx, s.Jobs(jobs), collectors)
}
