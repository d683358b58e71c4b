package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"saath/internal/obs"
	"saath/internal/study"
	"saath/internal/sweep"
)

// Driver defaults. Deadline bounds one attempt's wall clock; the stall
// timeout is the liveness bar — a healthy worker emits hello
// immediately and a progress event per job, so prolonged silence means
// a hung or wedged process long before the deadline would notice.
const (
	defaultWorkers      = 4
	defaultTasksPerSlot = 4
	defaultMaxAttempts  = 3
	defaultBackoffBase  = 250 * time.Millisecond
	maxBackoff          = 10 * time.Second
	defaultDeadline     = 10 * time.Minute
	defaultStallTimeout = 30 * time.Second
)

// Options configure a fleet run.
type Options struct {
	// Backend launches workers. Required.
	Backend Backend
	// Workers is the number of concurrent worker slots (default 4).
	Workers int
	// Tasks is the shard partition size. More tasks than workers (the
	// default is 4x) keeps slots busy and shrinks the re-queue unit when
	// a worker dies. Capped at the grid size.
	Tasks int
	// MaxAttempts bounds launches per shard, including the first
	// (default 3).
	MaxAttempts int
	// BackoffBase is the first retry delay, doubling per attempt with
	// deterministic jitter (default 250ms).
	BackoffBase time.Duration
	// Deadline bounds one attempt's wall clock (default 10m).
	Deadline time.Duration
	// StallTimeout kills an attempt that stays silent — no wire event —
	// this long (default 30s).
	StallTimeout time.Duration
	// WorkerParallel forwards the workers' -parallel flag.
	WorkerParallel int
	// Chaos, when non-nil, injects faults (tests and drills).
	Chaos *Chaos
	// Progress, when non-nil, receives live aggregate progress.
	Progress *sweep.ProgressMeter
	// Log receives driver narration (retries, kills); nil discards.
	Log io.Writer
}

func (o *Options) withDefaults(grid int) Options {
	out := *o
	if out.Workers <= 0 {
		out.Workers = defaultWorkers
	}
	if out.Tasks <= 0 {
		out.Tasks = out.Workers * defaultTasksPerSlot
	}
	if out.Tasks > grid {
		out.Tasks = grid
	}
	if out.Tasks < out.Workers && out.Tasks > 0 {
		// More slots than shards just idles the extras; shrink for a
		// truthful report.
		out.Workers = out.Tasks
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = defaultMaxAttempts
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = defaultBackoffBase
	}
	if out.Deadline <= 0 {
		out.Deadline = defaultDeadline
	}
	if out.StallTimeout <= 0 {
		out.StallTimeout = defaultStallTimeout
	}
	if out.Log == nil {
		out.Log = io.Discard
	}
	return out
}

// backoffDelay is the deterministic retry backoff: exponential in the
// retry number, capped, with jitter derived from the shard identity
// via the sweep seed derivation — never wall clock or a global RNG, so
// a fleet run's retry schedule is reproducible.
func backoffDelay(base time.Duration, shard, attempt int) time.Duration {
	d := base << uint(attempt-2) // attempt 2 waits base, 3 waits 2*base, ...
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	j := sweep.DeriveSeed(int64(shard), fmt.Sprintf("fleet-backoff|%d", attempt))
	if j < 0 {
		j = -j
	}
	return d + time.Duration(j)%(d/2+1)
}

// Output is a completed fleet run: the merged study result (nil when
// shards failed terminally), the robustness report, and the obs totals
// summed across shards — ready to attach to a manifest.
type Output struct {
	Result *study.Result
	Report *obs.FleetReport
	Totals obs.ManifestTotals
}

// Manifest assembles the run's obs manifest: study identity, summed
// totals, fleet report. Per-job spans stay in the workers; the
// driver's manifest is the fleet-level view.
func (o *Output) Manifest(studyName string) *obs.Manifest {
	return &obs.Manifest{Study: studyName, Totals: o.Totals, Fleet: o.Report}
}

// shardState is the driver-side bookkeeping for one shard.
type shardState struct {
	jobs     int
	attempts []obs.FleetAttempt
	dump     *study.ShardDump
	totals   obs.ManifestTotals
}

// Run executes st across the fleet and merges the result. The Output
// (with its report) is returned even when err is non-nil, so failures
// still produce forensics. Determinism contract: the merged Result is
// byte-identical to a single-process run of st regardless of worker
// count, task partition, retries, or injected chaos — failed attempts
// contribute no output, and each shard's dump is a pure function of
// (study, shard).
func Run(ctx context.Context, st *study.Study, opts Options) (*Output, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("fleet: no backend configured")
	}
	jobs := st.Jobs()
	opts = opts.withDefaults(len(jobs))
	backend := opts.Backend
	if opts.Chaos != nil {
		backend = &chaosBackend{Backend: backend, chaos: opts.Chaos}
	}
	fingerprint := st.Fingerprint()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type request struct {
		shard   int
		attempt int
		backoff time.Duration
	}
	var (
		mu        sync.Mutex
		states    = make([]shardState, opts.Tasks)
		remaining = opts.Tasks
		failed    []int
		doneIdx   = make([]bool, len(jobs))
		doneCount int
	)
	for i := range states {
		states[i].jobs = len(study.Sharded{Index: i, Count: opts.Tasks}.Jobs(jobs))
	}
	// Buffered past the worst case so re-queues (including delayed ones
	// from backoff timers) never block.
	queue := make(chan request, opts.Tasks*opts.MaxAttempts)
	done := make(chan struct{})
	finish := func() { // call with mu held
		remaining--
		if remaining == 0 {
			close(done)
		}
	}

	// observe feeds the aggregate meter from a worker progress event,
	// deduplicating on grid index so a retried shard replaying
	// completions never double-counts.
	observe := func(p *Progress) {
		mu.Lock()
		if p.Index >= 0 && p.Index < len(doneIdx) && !doneIdx[p.Index] {
			doneIdx[p.Index] = true
			doneCount++
			if opts.Progress != nil {
				opts.Progress.Observe(doneCount, len(jobs), p.Group,
					time.Duration(p.ElapsedNs), p.Error != "")
			}
		}
		mu.Unlock()
	}

	runAttempt := func(slot int, req request) (outcome string, errMsg string, events int) {
		t := Task{
			Study:    st.Name(),
			Shard:    req.shard,
			Of:       opts.Tasks,
			Parallel: opts.WorkerParallel,
			Attempt:  req.attempt,
		}
		proc, err := backend.Launch(runCtx, t)
		if err != nil {
			return obs.FleetLaunch, err.Error(), 0
		}
		stream := proc.Events()
		quit := make(chan struct{})
		defer func() {
			// Kill before Wait: a hung worker must not block the reap.
			close(quit)
			stream.Close()
			proc.Kill()
			proc.Wait()
		}()

		type evOrErr struct {
			ev  *Event
			err error
		}
		evCh := make(chan evOrErr)
		go func() {
			rd := NewEventReader(stream)
			for {
				ev, err := rd.Next()
				select {
				case evCh <- evOrErr{ev, err}:
				case <-quit:
					return
				}
				if err != nil {
					return
				}
			}
		}()

		deadline := time.NewTimer(opts.Deadline)
		defer deadline.Stop()
		stall := time.NewTimer(opts.StallTimeout)
		defer stall.Stop()
		for {
			select {
			case <-runCtx.Done():
				return obs.FleetCanceled, runCtx.Err().Error(), events
			case <-deadline.C:
				return obs.FleetDeadline, fmt.Sprintf("no dump within the %v deadline", opts.Deadline), events
			case <-stall.C:
				return obs.FleetStalled, fmt.Sprintf("no event within the %v stall timeout", opts.StallTimeout), events
			case eo := <-evCh:
				if eo.err != nil {
					msg := "worker exited before delivering its dump"
					if eo.err != io.EOF {
						msg = eo.err.Error()
					}
					return obs.FleetExit, msg, events
				}
				events++
				if !stall.Stop() {
					<-stall.C
				}
				stall.Reset(opts.StallTimeout)
				switch eo.ev.Type {
				case EventHello:
					h := eo.ev.Hello
					if h == nil {
						return obs.FleetExit, "hello event without payload", events
					}
					if h.Fingerprint != fingerprint || h.Study != st.Name() ||
						h.Of != opts.Tasks || h.Shard != req.shard || h.Grid != len(jobs) {
						return obs.FleetDrift, fmt.Sprintf(
							"worker announced study %q shard %d/%d grid %d fingerprint %.12s…, driver expects %q %d/%d grid %d %.12s…",
							h.Study, h.Shard, h.Of, h.Grid, h.Fingerprint,
							st.Name(), req.shard, opts.Tasks, len(jobs), fingerprint), events
					}
				case EventProgress:
					if eo.ev.Progress != nil {
						observe(eo.ev.Progress)
					}
				case EventError:
					return obs.FleetExit, eo.ev.Error, events
				case EventDump:
					d := eo.ev.Dump
					if d == nil || d.Dump == nil {
						return obs.FleetBadDump, "dump event without payload", events
					}
					dump, err := study.ReadShard(bytes.NewReader(d.Dump))
					if err != nil {
						return obs.FleetBadDump, err.Error(), events
					}
					if err := dump.Check(st); err != nil {
						return obs.FleetBadDump, err.Error(), events
					}
					if dump.Shard != req.shard || dump.Of != opts.Tasks {
						return obs.FleetBadDump, fmt.Sprintf("dump is shard %d/%d, task was %d/%d",
							dump.Shard, dump.Of, req.shard, opts.Tasks), events
					}
					mu.Lock()
					states[req.shard].dump = dump
					states[req.shard].totals = d.Totals
					mu.Unlock()
					// The dump is the last event; the deferred cleanup reaps
					// the worker while the slot moves on.
					return obs.FleetOK, "", events
				}
			}
		}
	}

	var wg sync.WaitGroup
	for slot := 0; slot < opts.Workers; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				var req request
				select {
				case <-done:
					return
				case <-runCtx.Done():
					return
				case req = <-queue:
				}
				start := time.Now()
				outcome, errMsg, events := runAttempt(slot, req)
				att := obs.FleetAttempt{
					Attempt:   req.attempt,
					Worker:    slot,
					Outcome:   outcome,
					Error:     errMsg,
					DurNs:     time.Since(start).Nanoseconds(),
					Events:    events,
					BackoffNs: req.backoff.Nanoseconds(),
				}
				mu.Lock()
				states[req.shard].attempts = append(states[req.shard].attempts, att)
				switch {
				case outcome == obs.FleetOK:
					fmt.Fprintf(opts.Log, "fleet: shard %d/%d ok on worker %d (attempt %d)\n",
						req.shard, opts.Tasks, slot, req.attempt)
					finish()
				case outcome == obs.FleetCanceled:
					// Collateral of another shard's terminal failure (or a
					// user cancel); the originating error speaks for the run.
					finish()
				case outcome == obs.FleetDrift:
					// Deterministic config drift: a retry would drift the same
					// way, so fail the shard outright.
					failed = append(failed, req.shard)
					finish()
					cancel()
				case req.attempt < opts.MaxAttempts:
					delay := backoffDelay(opts.BackoffBase, req.shard, req.attempt+1)
					fmt.Fprintf(opts.Log, "fleet: shard %d/%d attempt %d on worker %d failed (%s: %s); retrying in %v\n",
						req.shard, opts.Tasks, req.attempt, slot, outcome, errMsg, delay.Round(time.Millisecond))
					next := request{shard: req.shard, attempt: req.attempt + 1, backoff: delay}
					// The backoff timer re-queues without occupying this slot:
					// the shard lands on whichever surviving worker is free.
					time.AfterFunc(delay, func() { queue <- next })
				default:
					fmt.Fprintf(opts.Log, "fleet: shard %d/%d FAILED after %d attempts (%s: %s)\n",
						req.shard, opts.Tasks, req.attempt, outcome, errMsg)
					failed = append(failed, req.shard)
					finish()
					cancel()
				}
				mu.Unlock()
			}
		}(slot)
	}
	for i := 0; i < opts.Tasks; i++ {
		queue <- request{shard: i, attempt: 1}
	}
	select {
	case <-done:
	case <-runCtx.Done():
		// Terminal failure canceled the run while some shard sat in a
		// backoff timer: its verdict will never arrive, so done cannot
		// close. The cancel itself is the signal to stop waiting.
	}
	cancel()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	report := &obs.FleetReport{
		Backend: opts.Backend.Name(),
		Workers: opts.Workers,
		Tasks:   opts.Tasks,
		Chaos:   opts.Chaos.describe(),
	}
	out := &Output{Report: report}
	var dumps []*study.ShardDump
	for i := range states {
		s := &states[i]
		fs := obs.FleetShard{
			Shard:    i,
			Of:       opts.Tasks,
			Jobs:     s.jobs,
			Attempts: s.attempts,
			Retries:  max(len(s.attempts)-1, 0),
		}
		if c := s.totals.Counters.Schedule; c.Count > 0 {
			fs.ScheduleCount = c.Count
			fs.ScheduleMeanNs = c.SumNs / c.Count
			fs.ScheduleMaxNs = c.MaxNs
		}
		report.Shards = append(report.Shards, fs)
		report.Retries += fs.Retries
		if s.dump != nil {
			dumps = append(dumps, s.dump)
			out.Totals.Jobs += s.totals.Jobs
			out.Totals.Failed += s.totals.Failed
			out.Totals.JobNs += s.totals.JobNs
			out.Totals.Counters.Merge(&s.totals.Counters)
		}
	}
	report.MarkStragglers(0)
	sort.Ints(failed)
	report.Failed = failed

	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("fleet: run canceled: %w", err)
	}
	if len(failed) > 0 {
		return out, fmt.Errorf("fleet: %d of %d shards failed terminally: %v (see fleet report for attempt history)",
			len(failed), opts.Tasks, failed)
	}
	res, err := study.MergeShards(st, dumps...)
	if err != nil {
		return out, fmt.Errorf("fleet: merge after successful shards: %w", err)
	}
	out.Result = res
	return out, nil
}
