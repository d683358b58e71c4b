package sweep

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock is an injectable, manually-advanced time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func jobResult(j Job, err error) JobResult   { return JobResult{Job: j, Err: err, Elapsed: time.Second} }
func meterJobs(variants ...string) (out []Job) {
	for i, v := range variants {
		out = append(out, Job{Index: i, Trace: "fb", Variant: v, Scheduler: "saath", Seed: 1})
	}
	return out
}

func TestProgressMeterThrottlesAndSummarizes(t *testing.T) {
	var buf bytes.Buffer
	clock := newFakeClock()
	jobs := meterJobs("A=1", "A=1", "A=2", "A=2")
	m := NewProgressMeter(&buf, time.Second, jobs)
	m.now = clock.now

	m.Progress(1, 4, jobResult(jobs[0], nil)) // first completion always prints
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("first completion printed %d lines:\n%s", got, buf.String())
	}
	clock.advance(100 * time.Millisecond)
	m.Progress(2, 4, jobResult(jobs[1], nil)) // throttled
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("throttled completion printed:\n%s", buf.String())
	}
	clock.advance(2 * time.Second)
	m.Progress(3, 4, jobResult(jobs[2], nil)) // interval elapsed
	out := buf.String()
	if got := strings.Count(out, "\n"); got != 2 {
		t.Fatalf("post-interval completion did not print:\n%s", out)
	}
	if !strings.Contains(out, "3/4 jobs (75%)") || !strings.Contains(out, "variants 1/2") {
		t.Errorf("aggregate line malformed:\n%s", out)
	}
	if !strings.Contains(out, "eta") {
		t.Errorf("mid-sweep line missing eta:\n%s", out)
	}

	clock.advance(10 * time.Millisecond)
	m.Progress(4, 4, jobResult(jobs[3], nil)) // final always prints + breakdown
	out = buf.String()
	if !strings.Contains(out, "4/4 jobs (100%)") || !strings.Contains(out, "variants 2/2") {
		t.Errorf("final line malformed:\n%s", out)
	}
	for _, group := range []string{"A=1", "A=2"} {
		if !strings.Contains(out, group+" ") && !strings.Contains(out, group+"\n") {
			t.Errorf("final breakdown missing %q:\n%s", group, out)
		}
	}
	if !strings.Contains(out, "2/2") {
		t.Errorf("per-variant counts missing:\n%s", out)
	}
}

func TestProgressMeterRatesAndFailures(t *testing.T) {
	var buf bytes.Buffer
	clock := newFakeClock()
	jobs := meterJobs("", "")
	m := NewProgressMeter(&buf, time.Second, jobs)
	m.now = clock.now

	// First completion anchors the rate clock at now - Elapsed (1s), so
	// 1 job in 1s = 1.0 jobs/s.
	m.Progress(1, 2, jobResult(jobs[0], nil))
	if !strings.Contains(buf.String(), "1.0 jobs/s") {
		t.Errorf("rate missing or wrong:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "eta 1s") {
		t.Errorf("eta missing or wrong:\n%s", buf.String())
	}

	clock.advance(time.Second)
	m.Progress(2, 2, jobResult(jobs[1], &errString{"boom"}))
	if !strings.Contains(buf.String(), "failed 1") {
		t.Errorf("failure count missing:\n%s", buf.String())
	}
	// Unnamed variants group by trace; a single group prints no
	// breakdown.
	if strings.Contains(buf.String(), "variants") {
		t.Errorf("single-group sweep printed variant column:\n%s", buf.String())
	}
}

func TestCLIProgress(t *testing.T) {
	if CLIProgress(false, nil, nil) != nil {
		t.Error("disabled CLIProgress should be nil")
	}
	var buf bytes.Buffer
	fn := CLIProgress(true, &buf, meterJobs("A=1", "A=2"))
	if fn == nil {
		t.Fatal("enabled CLIProgress is nil")
	}
	fn(1, 2, jobResult(meterJobs("A=1")[0], nil))
	if !strings.Contains(buf.String(), "1/2 jobs") {
		t.Errorf("CLIProgress wrote:\n%s", buf.String())
	}
}

type errString struct{ s string }

func (e *errString) Error() string { return e.s }
