package fleet

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"saath/internal/obs"
	"saath/internal/study"
	"saath/internal/sweep"
)

// StreamOptions configure the worker side of a fleet shard run.
type StreamOptions struct {
	// Parallel bounds the worker's in-process pool; <=0 means NumCPU.
	// Fleet drivers usually pin this low — the fleet itself is the
	// parallelism.
	Parallel int
}

// StreamShard runs shard sh of st and emits the wire protocol on w:
// hello, one progress event per completed job, then the dump. This is
// the whole worker side — `saath-sim -shard-stream` and the test
// harness's re-exec child both end up here.
func StreamShard(ctx context.Context, st *study.Study, sh study.Sharded, opts StreamOptions, w io.Writer) error {
	jobs := st.Jobs()
	own := sh.Jobs(jobs)
	if err := WriteEvent(w, &Event{Type: EventHello, Hello: &Hello{
		Study:       st.Name(),
		Shard:       sh.Index,
		Of:          sh.Count,
		Jobs:        len(own),
		Grid:        len(jobs),
		Fingerprint: st.Fingerprint(),
	}}); err != nil {
		return err
	}
	rec := obs.NewRecorder(st.Name())
	// The pool serializes progress callbacks, so events never interleave
	// mid-line on the pipe. The jobs carry their own body (simulator or
	// testbed), so any study is fleet-capable.
	sh.Pool = study.Pool{
		Parallel: opts.Parallel,
		Observer: rec,
		Progress: func(done, total int, jr sweep.JobResult) {
			p := &Progress{
				Index:     jr.Job.Index,
				Key:       jr.Job.Key(),
				Group:     jr.Job.Group(),
				Done:      done,
				Total:     total,
				ElapsedNs: jr.Elapsed.Nanoseconds(),
			}
			if jr.Err != nil {
				p.Error = jr.Err.Error()
			}
			WriteEvent(w, &Event{Type: EventProgress, Progress: p})
		},
	}
	res, err := st.Run(ctx, sh)
	if err != nil {
		WriteEvent(w, &Event{Type: EventError, Error: err.Error()})
		return err
	}
	var dump bytes.Buffer
	if err := res.WriteShard(&dump, sh); err != nil {
		WriteEvent(w, &Event{Type: EventError, Error: err.Error()})
		return err
	}
	return WriteEvent(w, &Event{Type: EventDump, Dump: &Dump{
		Dump:   dump.Bytes(),
		Totals: rec.Manifest().Totals,
	}})
}

// ChildMain is a ready-made worker entry point: parse the canonical
// shard-stream flags (the ones SaathSimArgs generates) and stream the
// shard on stdout. cmd/saath-sim's -shard-stream mode mirrors this
// inside its richer flag set; the fleet test harness re-execs its own
// binary straight into ChildMain. Returns a process exit code.
func ChildMain(argv []string) int {
	fs := flag.NewFlagSet("shard-stream", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	studyName := fs.String("study", "", "registered study name")
	shardSpec := fs.String("shard", "", "shard i/n to run")
	parallel := fs.Int("parallel", 0, "in-process parallelism (0 = NumCPU)")
	fs.Bool("shard-stream", true, "accepted for saath-sim flag compatibility")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	st, err := study.Build(*studyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 2
	}
	sh, err := study.ParseShard(*shardSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 2
	}
	opts := StreamOptions{Parallel: *parallel}
	if err := StreamShard(context.Background(), st, sh, opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		return 1
	}
	return 0
}
