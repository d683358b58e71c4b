package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/obs"
	"saath/internal/study"
	"saath/internal/sweep"
	"saath/internal/trace"

	_ "saath/internal/core"
	_ "saath/internal/sched/aalo"
	_ "saath/internal/sched/uctcp"
	_ "saath/internal/sched/varys"
	_ "saath/internal/testbed" // registers the coordinator-backed catalog studies
)

// The chaos goldens need real worker processes. Rather than building
// saath-sim, the tests re-exec this test binary: TestMain detects the
// child env var and routes straight into ChildMain, so the workers
// share the test package's registered studies and scheduler set.
const childEnv = "SAATH_FLEET_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(ChildMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// fleetSource is a tiny synthetic workload so a full study runs in
// seconds even as 8 shards under -race.
func fleetSource(name string, ports int) sweep.TraceSource {
	return sweep.SynthSource(name, func(seed int64) *trace.Trace {
		return trace.Synthesize(trace.SynthConfig{
			Seed: seed, NumPorts: ports, NumCoFlows: 16,
			MeanInterArrival: 20 * coflow.Millisecond,
			SingleFlowFrac:   0.25, EqualLengthFrac: 0.5, WideFracNarrowCF: 0.3,
			SmallFracNarrow: 0.8, SmallFracWide: 0.5,
			MinSmall: 100 * coflow.KB, MaxSmall: coflow.MB,
			MinLarge: coflow.MB, MaxLarge: 20 * coflow.MB,
		}, name)
	})
}

// headline-fleet mirrors the catalog's headline study — two workloads
// × the paper's four schedulers × three seeds, aalo baseline, the same
// derived tables — shrunk to test scale so the chaos goldens can run
// it repeatedly.
func init() {
	study.Register("headline-fleet",
		"headline-shaped study at test scale for fleet chaos goldens",
		func() (*study.Study, error) {
			return study.New("headline-fleet",
				study.WithTraces(fleetSource("fb-tiny", 10), fleetSource("osp-tiny", 14)),
				study.WithSchedulers("aalo", "varys", "uc-tcp", "saath"),
				study.WithSeeds(1, 2, 3),
				study.WithBaseline("aalo"),
				study.WithDerived(
					study.DerivedCCT("headline-fleet — per-scheduler CCT"),
					study.DerivedSpeedup("headline-fleet — per-coflow speedup over aalo", ""),
					study.DerivedCCTCDF("headline-fleet", 25),
				),
			)
		})
}

func buildStudy(t *testing.T) *study.Study {
	t.Helper()
	st, err := study.Build("headline-fleet")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// selfExec launches this test binary as the worker.
func selfExec(t *testing.T) *LocalExec {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &LocalExec{Bin: self, Env: []string{childEnv + "=1"}}
}

// singleProcessBytes is the golden: the study's aggregate export from
// one in-process run. Every fleet run must reproduce it byte for byte.
func singleProcessBytes(t *testing.T, st *study.Study) []byte {
	t.Helper()
	res, err := st.Run(context.Background(), study.Pool{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Summary().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fleetOptions(t *testing.T, chaos *Chaos) Options {
	return Options{
		Backend:        selfExec(t),
		Workers:        4,
		Tasks:          8,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		Deadline:       2 * time.Minute,
		StallTimeout:   30 * time.Second,
		WorkerParallel: 2,
		Chaos:          chaos,
	}
}

// runGolden executes the fleet run and asserts byte-identity against
// the single-process export, returning the report for fault forensics.
func runGolden(t *testing.T, opts Options) *obs.FleetReport {
	t.Helper()
	st := buildStudy(t)
	want := singleProcessBytes(t, st)
	out, err := Run(context.Background(), buildStudy(t), opts)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	var got bytes.Buffer
	if err := out.Result.Summary().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("fleet output differs from single-process run (%d vs %d bytes)", got.Len(), len(want))
	}
	if out.Totals.Jobs != len(st.Jobs()) {
		t.Errorf("fleet totals cover %d jobs, study has %d", out.Totals.Jobs, len(st.Jobs()))
	}
	return out.Report
}

// shardOutcomes flattens one shard's attempt outcomes.
func shardOutcomes(r *obs.FleetReport, shard int) []string {
	var out []string
	for _, a := range r.Shards[shard].Attempts {
		out = append(out, a.Outcome)
	}
	return out
}

// TestFleetCleanGolden: the headline-shaped study on 4 local-exec
// workers, 8 shards, no faults — byte-identical to single-process,
// every shard first-attempt ok.
func TestFleetCleanGolden(t *testing.T) {
	report := runGolden(t, fleetOptions(t, nil))
	if report.Retries != 0 {
		t.Errorf("clean run recorded %d retries", report.Retries)
	}
	if len(report.Shards) != 8 {
		t.Fatalf("report has %d shards, want 8", len(report.Shards))
	}
	for i := range report.Shards {
		if got := shardOutcomes(report, i); len(got) != 1 || got[0] != obs.FleetOK {
			t.Errorf("shard %d attempts = %v, want [ok]", i, got)
		}
	}
	if report.Backend != "local-exec" || report.Workers != 4 || report.Tasks != 8 {
		t.Errorf("report identity = %s/%d workers/%d tasks", report.Backend, report.Workers, report.Tasks)
	}
}

// TestFleetChaosKillGolden: a worker killed mid-run (after its first
// progress event) loses the rest of its shard; the driver must retry
// the shard on a surviving slot and still merge byte-identically.
func TestFleetChaosKillGolden(t *testing.T) {
	chaos := NewChaos()
	chaos.KillShard = 1
	report := runGolden(t, fleetOptions(t, chaos))
	got := shardOutcomes(report, 1)
	if len(got) < 2 || got[0] != obs.FleetExit || got[len(got)-1] != obs.FleetOK {
		t.Errorf("killed shard attempts = %v, want [exit ... ok]", got)
	}
	if report.Shards[1].Retries < 1 || report.Retries < 1 {
		t.Errorf("kill left no retry trace: shard retries %d, total %d",
			report.Shards[1].Retries, report.Retries)
	}
	if report.Shards[1].Attempts[0].Events < 2 {
		t.Errorf("killed attempt saw %d events, want >=2 (hello + first progress)",
			report.Shards[1].Attempts[0].Events)
	}
	if len(report.Chaos) != 1 || report.Chaos[0] != "kill=1" {
		t.Errorf("chaos record = %v", report.Chaos)
	}
	if report.Shards[1].Attempts[1].BackoffNs <= 0 {
		t.Errorf("retry recorded no backoff: %+v", report.Shards[1].Attempts[1])
	}
}

// TestFleetChaosHangGolden: a worker that stays alive but stops
// streaming must be caught by the stall detector, killed, and retried.
func TestFleetChaosHangGolden(t *testing.T) {
	chaos := NewChaos()
	chaos.HangShard = 2
	opts := fleetOptions(t, chaos)
	opts.StallTimeout = 2 * time.Second // the test's only real wait
	report := runGolden(t, opts)
	got := shardOutcomes(report, 2)
	if len(got) < 2 || got[0] != obs.FleetStalled || got[len(got)-1] != obs.FleetOK {
		t.Errorf("hung shard attempts = %v, want [stalled ... ok]", got)
	}
	if !strings.Contains(report.Shards[2].Attempts[0].Error, "stall") {
		t.Errorf("stall verdict error = %q", report.Shards[2].Attempts[0].Error)
	}
}

// TestFleetChaosCorruptGolden: a dump whose fingerprint was mangled in
// flight must be rejected by validation — never merged — and retried.
func TestFleetChaosCorruptGolden(t *testing.T) {
	chaos := NewChaos()
	chaos.CorruptShard = 3
	report := runGolden(t, fleetOptions(t, chaos))
	got := shardOutcomes(report, 3)
	if len(got) < 2 || got[0] != obs.FleetBadDump || got[len(got)-1] != obs.FleetOK {
		t.Errorf("corrupt shard attempts = %v, want [bad-dump ... ok]", got)
	}
	if !strings.Contains(report.Shards[3].Attempts[0].Error, "fingerprint") {
		t.Errorf("bad-dump verdict error = %q", report.Shards[3].Attempts[0].Error)
	}
}

// TestFleetChaosSlowGolden: a slow worker is not a dead worker — the
// shard must succeed on attempt 1, with the delay visible in the
// report's durations rather than in any retry.
func TestFleetChaosSlowGolden(t *testing.T) {
	chaos := NewChaos()
	chaos.SlowShard = 0
	chaos.SlowDelay = 30 * time.Millisecond
	report := runGolden(t, fleetOptions(t, chaos))
	if got := shardOutcomes(report, 0); len(got) != 1 || got[0] != obs.FleetOK {
		t.Errorf("slow shard attempts = %v, want [ok]", got)
	}
	if report.Retries != 0 {
		t.Errorf("slow worker caused %d retries", report.Retries)
	}
}

// TestFleetTerminalFailure: with the attempt budget exhausted the run
// errors, names the shard, and still delivers the report.
func TestFleetTerminalFailure(t *testing.T) {
	chaos := NewChaos()
	chaos.KillShard = 0
	opts := fleetOptions(t, chaos)
	opts.MaxAttempts = 1
	out, err := Run(context.Background(), buildStudy(t), opts)
	if err == nil || !strings.Contains(err.Error(), "failed terminally") {
		t.Fatalf("err = %v, want terminal shard failure", err)
	}
	if out == nil || out.Report == nil {
		t.Fatal("failure did not deliver the forensic report")
	}
	if out.Result != nil {
		t.Error("terminal failure still produced a merged result")
	}
	found := false
	for _, s := range out.Report.Failed {
		if s == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("report.Failed = %v, want shard 0", out.Report.Failed)
	}
}

// fakeBackend scripts a worker's event stream in-process — for driver
// paths a real child cannot produce, like config drift.
type fakeBackend struct {
	payload func(t Task) []byte
}

func (b *fakeBackend) Name() string { return "fake" }
func (b *fakeBackend) Launch(_ context.Context, t Task) (Proc, error) {
	return &fakeProc{rd: io.NopCloser(bytes.NewReader(b.payload(t)))}, nil
}

type fakeProc struct{ rd io.ReadCloser }

func (p *fakeProc) Events() io.ReadCloser { return p.rd }
func (p *fakeProc) Kill() error           { return nil }
func (p *fakeProc) Wait() error           { return nil }

// TestFleetDriftRejected: a worker announcing a different grid
// fingerprint (drifted flags or study revision) fails the shard
// immediately — no retry can fix deterministic drift.
func TestFleetDriftRejected(t *testing.T) {
	st := buildStudy(t)
	backend := &fakeBackend{payload: func(task Task) []byte {
		var buf bytes.Buffer
		WriteEvent(&buf, &Event{Type: EventHello, Hello: &Hello{
			Study: task.Study, Shard: task.Shard, Of: task.Of,
			Jobs: 3, Grid: len(st.Jobs()),
			Fingerprint: strings.Repeat("ab", 32),
		}})
		return buf.Bytes()
	}}
	out, err := Run(context.Background(), st, Options{
		Backend: backend, Workers: 2, Tasks: 2, MaxAttempts: 3,
		BackoffBase: time.Millisecond, Deadline: time.Minute, StallTimeout: time.Minute,
	})
	if err == nil {
		t.Fatal("drifted fleet run succeeded")
	}
	drifted := 0
	for i := range out.Report.Shards {
		for _, a := range out.Report.Shards[i].Attempts {
			if a.Outcome == obs.FleetDrift {
				drifted++
				if a.Attempt != 1 {
					t.Errorf("drift was retried: attempt %d", a.Attempt)
				}
				if !strings.Contains(a.Error, "fingerprint") {
					t.Errorf("drift error = %q", a.Error)
				}
			}
		}
	}
	if drifted == 0 {
		t.Error("no drift verdict in the report")
	}
}

// TestFleetDamagedDumpRejected: dump bytes damaged between worker and
// driver fail the codec's checksum — a bad-dump verdict naming the
// cause, retried like any other, never merged.
func TestFleetDamagedDumpRejected(t *testing.T) {
	st := buildStudy(t)
	backend := &fakeBackend{payload: func(task Task) []byte {
		var stream bytes.Buffer
		sh := study.Sharded{Index: task.Shard, Count: task.Of}
		if err := StreamShard(context.Background(), st, sh, StreamOptions{Parallel: 2}, &stream); err != nil {
			t.Error(err)
		}
		// Re-emit the stream with one bit of the dump payload flipped.
		var out bytes.Buffer
		rd := NewEventReader(&stream)
		for {
			ev, err := rd.Next()
			if err != nil {
				break
			}
			if ev.Type == EventDump {
				ev.Dump.Dump[len(ev.Dump.Dump)/2] ^= 0x04
			}
			WriteEvent(&out, ev)
		}
		return out.Bytes()
	}}
	out, err := Run(context.Background(), st, Options{
		Backend: backend, Workers: 2, Tasks: 2, MaxAttempts: 2,
		BackoffBase: time.Millisecond, Deadline: time.Minute, StallTimeout: time.Minute,
	})
	if err == nil || out.Result != nil {
		t.Fatal("a fleet run over damaged dumps produced a result")
	}
	rejected := 0
	for i := range out.Report.Shards {
		for _, a := range out.Report.Shards[i].Attempts {
			switch {
			case a.Outcome == obs.FleetBadDump && strings.Contains(a.Error, "checksum mismatch"):
				rejected++
			case a.Outcome == obs.FleetOK || a.Outcome == obs.FleetBadDump:
				t.Errorf("shard %d attempt %d: %s %q, want bad-dump / checksum mismatch", i, a.Attempt, a.Outcome, a.Error)
			}
			// Anything else is the other shard's attempt cancelled once
			// this one failed terminally.
		}
	}
	if rejected == 0 {
		t.Error("no attempt was rejected for its checksum")
	}
}

// TestWireRoundTrip pins the event encoding: every event type survives
// a write/read cycle, and corrupt or version-skewed streams are
// rejected with descriptive errors.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	events := []*Event{
		{Type: EventHello, Hello: &Hello{Study: "s", Shard: 1, Of: 4, Jobs: 3, Grid: 12, Fingerprint: "ff"}},
		{Type: EventProgress, Progress: &Progress{Index: 5, Key: "k", Group: "g", Done: 1, Total: 3, ElapsedNs: 42}},
		{Type: EventError, Error: "boom"},
	}
	for _, ev := range events {
		if err := WriteEvent(&buf, ev); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewEventReader(&buf)
	for i, want := range events {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got.Type != want.Type {
			t.Errorf("event %d type = %s, want %s", i, got.Type, want.Type)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Errorf("end of stream = %v, want io.EOF", err)
	}

	rd = NewEventReader(strings.NewReader("{\"v\":2,\"type\":\"hello\"}\n###garbage"))
	if _, err := rd.Next(); err != nil {
		t.Fatalf("first event: %v", err)
	}
	if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), "corrupt event stream") {
		t.Errorf("corrupt tail = %v", err)
	}

	for _, v := range []int{1, 99} { // the pre-codec wire, and a future one
		rd = NewEventReader(strings.NewReader(fmt.Sprintf("{\"v\":%d,\"type\":\"hello\"}\n", v)))
		if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("wire version %d", v)) {
			t.Errorf("version skew = %v", err)
		}
	}
}

// TestBackoffDeterministicAndBounded pins the retry schedule contract.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	base := 250 * time.Millisecond
	var prev time.Duration
	for attempt := 2; attempt <= 8; attempt++ {
		a := backoffDelay(base, 3, attempt)
		b := backoffDelay(base, 3, attempt)
		if a != b {
			t.Errorf("attempt %d: non-deterministic backoff %v vs %v", attempt, a, b)
		}
		if a <= 0 || a > maxBackoff+maxBackoff/2 {
			t.Errorf("attempt %d: backoff %v outside (0, cap]", attempt, a)
		}
		if attempt <= 5 && a <= prev/2 {
			t.Errorf("attempt %d: backoff %v not growing from %v", attempt, a, prev)
		}
		prev = a
	}
	if backoffDelay(base, 0, 2) == backoffDelay(base, 1, 2) {
		t.Log("backoff jitter collision across shards (allowed, just unlikely)")
	}
}

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("kill=0, corrupt=3")
	if err != nil {
		t.Fatal(err)
	}
	if c.KillShard != 0 || c.CorruptShard != 3 || c.HangShard != -1 || c.SlowShard != -1 {
		t.Errorf("parsed chaos = %+v", c)
	}
	if got := c.describe(); len(got) != 2 || got[0] != "kill=0" || got[1] != "corrupt=3" {
		t.Errorf("describe = %v", got)
	}
	for _, bad := range []string{"kill", "kill=-1", "kill=x", "explode=1"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
	if c, err := ParseChaos(""); err != nil || len(c.describe()) != 0 {
		t.Errorf("empty spec: %+v, %v", c, err)
	}
}

// TestSaathSimArgs pins the worker command line both saath-sim and
// ChildMain parse.
func TestSaathSimArgs(t *testing.T) {
	got := strings.Join(SaathSimArgs(Task{Study: "headline", Shard: 2, Of: 8, Parallel: 3}), " ")
	want := "-study headline -shard 2/8 -shard-stream -parallel 3"
	if got != want {
		t.Errorf("args = %q, want %q", got, want)
	}
	got = strings.Join(SaathSimArgs(Task{Study: "s", Shard: 0, Of: 1}), " ")
	if got != "-study s -shard 0/1 -shard-stream" {
		t.Errorf("minimal args = %q", got)
	}
}

// TestStreamShardWire runs a real shard in-process and checks the
// stream shape end to end: hello first, per-job progress, dump last,
// and the dump validates against the study.
func TestStreamShardWire(t *testing.T) {
	st := buildStudy(t)
	sh := study.Sharded{Index: 1, Count: 8}
	var buf bytes.Buffer
	if err := StreamShard(context.Background(), st, sh, StreamOptions{Parallel: 2}, &buf); err != nil {
		t.Fatal(err)
	}
	rd := NewEventReader(&buf)
	ev, err := rd.Next()
	if err != nil || ev.Type != EventHello {
		t.Fatalf("first event = %v (%v), want hello", ev, err)
	}
	if ev.Hello.Fingerprint != st.Fingerprint() || ev.Hello.Jobs != 3 {
		t.Errorf("hello = %+v", ev.Hello)
	}
	progressed := 0
	var dump *Dump
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case EventProgress:
			progressed++
		case EventDump:
			dump = ev.Dump
		}
	}
	if progressed != 3 {
		t.Errorf("progress events = %d, want 3 (one per shard job)", progressed)
	}
	if dump == nil {
		t.Fatal("stream ended without a dump")
	}
	// The payload is the file codec's bytes: the same reader decodes it.
	decoded, err := study.ReadShard(bytes.NewReader(dump.Dump))
	if err != nil {
		t.Fatalf("streamed dump does not decode: %v", err)
	}
	if err := decoded.Check(st); err != nil {
		t.Errorf("streamed dump fails validation: %v", err)
	}
	if decoded.Shard != 1 || decoded.Of != 8 || len(decoded.Entries) != 3 {
		t.Errorf("streamed dump is shard %d/%d with %d entries", decoded.Shard, decoded.Of, len(decoded.Entries))
	}
	if dump.Totals.Jobs != 3 || dump.Totals.Counters.Schedule.Count == 0 {
		t.Errorf("dump totals = %+v", dump.Totals)
	}
}

// TestTestbedShardStampsProgress: a testbed-backed study streams
// through the same pool as a simulator one, so its progress events
// carry each job's wall time (the driver's meter and straggler marks
// read it) and nothing else about the stream differs.
func TestTestbedShardStampsProgress(t *testing.T) {
	st, err := study.Build("overload")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := StreamShard(context.Background(), st, study.Sharded{Index: 0, Count: 4}, StreamOptions{Parallel: 2}, &buf); err != nil {
		t.Fatal(err)
	}
	progressed, dumped := 0, false
	for rd := NewEventReader(&buf); ; {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case EventProgress:
			progressed++
			if ev.Progress.ElapsedNs <= 0 || ev.Progress.Error != "" {
				t.Errorf("progress event %+v: want a stamped, clean job", ev.Progress)
			}
		case EventDump:
			dumped = true
		}
	}
	if progressed != 2 || !dumped {
		t.Errorf("stream carried %d progress events (want 2) and a dump: %t", progressed, dumped)
	}
}

// TestFleetProgressMeter: the driver feeds the aggregate meter from
// wire events, deduplicating replays from retried shards — the meter
// must reach exactly total/total once.
func TestFleetProgressMeter(t *testing.T) {
	var lines bytes.Buffer
	chaos := NewChaos()
	chaos.KillShard = 1
	opts := fleetOptions(t, chaos)
	opts.Progress = sweep.NewProgressMeter(&lines, time.Nanosecond)
	st := buildStudy(t)
	opts.Progress.SetJobs(st.Jobs())
	if _, err := Run(context.Background(), st, opts); err != nil {
		t.Fatal(err)
	}
	out := lines.String()
	if !strings.Contains(out, fmt.Sprintf("%d/%d jobs", len(st.Jobs()), len(st.Jobs()))) {
		t.Errorf("meter never reached the full grid:\n%s", out)
	}
	if strings.Contains(out, fmt.Sprintf("%d/%d jobs", len(st.Jobs())+1, len(st.Jobs()))) {
		t.Errorf("meter overshot the grid (duplicate completions counted):\n%s", out)
	}
}
