package runtime

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"saath/internal/coflow"
	"saath/internal/sched"

	_ "saath/internal/core" // register saath
)

// cluster spins up a coordinator plus n in-process agents and tears
// everything down with the test.
func cluster(t *testing.T, n int, schedName string, rate coflow.Rate) (*Coordinator, []*Agent, *Client) {
	t.Helper()
	s, err := sched.New(schedName, sched.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Scheduler: s,
		NumPorts:  n,
		PortRate:  rate,
		Delta:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve()
	t.Cleanup(func() { coord.Close() })

	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		a, err := NewAgent(AgentConfig{
			Port:            i,
			CoordinatorAddr: coord.ControlAddr(),
			StatsInterval:   10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		t.Cleanup(func() { a.Close() })
	}
	waitFor(t, 2*time.Second, func() bool { return coord.AgentCount() == n })
	return coord, agents, NewClient(coord.HTTPAddr())
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &envelope{Kind: kindStats, Stats: &statsMsg{Port: 3, Flows: []FlowStat{
		{CoFlow: 7, Index: 1, Sent: 1234, Done: true, Available: true},
	}}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != kindStats || out.Stats.Port != 3 || out.Stats.Flows[0].Sent != 1234 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestDataHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeDataHeader(&buf, dataHeader{CoFlow: 9, Index: 2, Size: 555}); err != nil {
		t.Fatal(err)
	}
	h, err := readDataHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.CoFlow != 9 || h.Index != 2 || h.Size != 555 {
		t.Fatalf("header = %+v", h)
	}
}

func TestTokenBucketPacing(t *testing.T) {
	b := newTokenBucket(64 << 10)
	b.SetRate(1e6) // 1 MB/s
	start := time.Now()
	total := 0
	for total < 100_000 {
		if !b.Take(10_000) {
			t.Fatal("bucket closed unexpectedly")
		}
		total += 10_000
	}
	elapsed := time.Since(start).Seconds()
	// 100 KB at 1 MB/s ≈ 0.1 s minus the initial burst allowance.
	if elapsed < 0.02 || elapsed > 0.6 {
		t.Fatalf("pacing off: %d bytes in %.3fs", total, elapsed)
	}
}

func TestTokenBucketPauseAndClose(t *testing.T) {
	b := newTokenBucket(1024)
	done := make(chan bool, 1)
	go func() { done <- b.Take(512) }()
	select {
	case <-done:
		t.Fatal("Take returned while paused")
	case <-time.After(30 * time.Millisecond):
	}
	b.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Take returned true after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("Take did not unblock on Close")
	}
}

func TestTokenBucketRateChangeUnblocks(t *testing.T) {
	b := newTokenBucket(1 << 20)
	got := make(chan bool, 1)
	go func() { got <- b.Take(1000) }()
	time.Sleep(20 * time.Millisecond)
	b.SetRate(10e6)
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("Take failed")
		}
	case <-time.After(time.Second):
		t.Fatal("Take did not resume after SetRate")
	}
}

func TestCoordinatorRejectsBadConfig(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorConfig{}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	s, _ := sched.New("saath", sched.DefaultParams())
	if _, err := NewCoordinator(CoordinatorConfig{Scheduler: s}); err == nil {
		t.Fatal("zero ports accepted")
	}
}

func TestAgentRejectsBadConfig(t *testing.T) {
	if _, err := NewAgent(AgentConfig{}); err == nil {
		t.Fatal("missing coordinator addr accepted")
	}
	if _, err := NewAgent(AgentConfig{CoordinatorAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable coordinator accepted")
	}
}

func TestEndToEndSingleCoFlow(t *testing.T) {
	coord, agents, client := cluster(t, 2, "saath", coflow.Rate(20e6))
	spec := &coflow.Spec{ID: 1, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 1, Size: 400 * coflow.KB},
	}}
	if err := client.Register(spec); err != nil {
		t.Fatal(err)
	}
	res, err := client.WaitForResults(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 1 || res[0].Bytes != 400*coflow.KB || res[0].Width != 1 {
		t.Fatalf("result = %+v", res[0])
	}
	// 400 KiB at 20 MB/s ≈ 20 ms; allow generous slack for localhost
	// scheduling jitter but catch run-away CCTs.
	if res[0].CCT < 10*time.Millisecond || res[0].CCT > 5*time.Second {
		t.Fatalf("CCT = %v", res[0].CCT)
	}
	// Bytes actually crossed the data plane.
	if got := agents[1].Received(1, 0); got != int64(400*coflow.KB) {
		t.Fatalf("received %d bytes", got)
	}
	calls, mean, max, _ := coord.ScheduleLatency()
	if calls == 0 || mean <= 0 || max < mean {
		t.Fatalf("overhead stats: calls=%d mean=%v max=%v", calls, mean, max)
	}
}

func TestEndToEndMultipleCoFlows(t *testing.T) {
	_, _, client := cluster(t, 4, "saath", coflow.Rate(20e6))
	specs := []*coflow.Spec{
		{ID: 1, Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 2, Size: 200 * coflow.KB},
			{Src: 1, Dst: 3, Size: 200 * coflow.KB},
		}},
		{ID: 2, Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 3, Size: 100 * coflow.KB},
		}},
		{ID: 3, Flows: []coflow.FlowSpec{
			{Src: 1, Dst: 2, Size: 100 * coflow.KB},
		}},
	}
	for _, s := range specs {
		if err := client.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.WaitForResults(len(specs), 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[coflow.CoFlowID]bool{}
	for _, r := range res {
		seen[r.ID] = true
		if r.CCT <= 0 {
			t.Errorf("coflow %d CCT %v", r.ID, r.CCT)
		}
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("missing completions: %+v", res)
	}
}

func TestRESTValidation(t *testing.T) {
	_, _, client := cluster(t, 2, "saath", coflow.Rate(20e6))
	// Port out of range.
	bad := &coflow.Spec{ID: 9, Flows: []coflow.FlowSpec{{Src: 0, Dst: 99, Size: 1}}}
	if err := client.Register(bad); err == nil {
		t.Fatal("out-of-range port accepted")
	}
	// Duplicate registration.
	ok := &coflow.Spec{ID: 10, Flows: []coflow.FlowSpec{{Src: 0, Dst: 1, Size: 100 * coflow.MB}}}
	if err := client.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := client.Register(ok); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate accepted: %v", err)
	}
	// Deregister works, second time 404s.
	if err := client.Deregister(10); err != nil {
		t.Fatal(err)
	}
	if err := client.Deregister(10); err == nil {
		t.Fatal("double deregister accepted")
	}
	if err := client.Deregister(12345); err == nil {
		t.Fatal("unknown deregister accepted")
	}
}

func TestUpdatePreservesProgress(t *testing.T) {
	_, _, client := cluster(t, 3, "saath", coflow.Rate(5e6))
	spec := &coflow.Spec{ID: 20, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 1, Size: 2 * coflow.MB},
	}}
	if err := client.Register(spec); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let some bytes move
	// Task migration: add a second flow, keep the first.
	upd := &coflow.Spec{ID: 20, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 1, Size: 2 * coflow.MB},
		{Src: 2, Dst: 1, Size: 100 * coflow.KB},
	}}
	if err := client.Update(upd); err != nil {
		t.Fatal(err)
	}
	res, err := client.WaitForResults(1, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Width != 2 {
		t.Fatalf("updated width = %d", res[0].Width)
	}
	if err := client.Update(&coflow.Spec{ID: 999, Flows: upd.Flows}); err == nil {
		t.Fatal("update of unknown coflow accepted")
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, _, client := cluster(t, 2, "saath", coflow.Rate(20e6))
	st, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st["scheduler"] != "saath" {
		t.Fatalf("status = %v", st)
	}
	if int(st["agents"].(float64)) != 2 {
		t.Fatalf("agents = %v", st["agents"])
	}
}

func TestCoordinatorIgnoresRogueAgent(t *testing.T) {
	coord, _, _ := cluster(t, 2, "saath", coflow.Rate(20e6))
	// Out-of-range port in hello: connection is dropped, agent count
	// stays at 2.
	conn, err := net.Dial("tcp", coord.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeFrame(conn, &envelope{Kind: kindHello, Hello: &helloMsg{Port: 99, DataAddr: "x"}})
	time.Sleep(50 * time.Millisecond)
	if coord.AgentCount() != 2 {
		t.Fatalf("agent count = %d", coord.AgentCount())
	}
}

func TestRateEnforcementShapesThroughput(t *testing.T) {
	// With the port rate capped low, a 1 MB flow must take at least
	// size/rate seconds; verifies the token bucket honours schedules.
	_, _, client := cluster(t, 2, "saath", coflow.Rate(2e6)) // 2 MB/s
	spec := &coflow.Spec{ID: 30, Flows: []coflow.FlowSpec{
		{Src: 0, Dst: 1, Size: coflow.MB},
	}}
	start := time.Now()
	if err := client.Register(spec); err != nil {
		t.Fatal(err)
	}
	res, err := client.WaitForResults(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	minTime := 300 * time.Millisecond // 1 MiB at 2 MB/s ≈ 0.52s; allow burst slack
	if res[0].CCT < minTime || elapsed < minTime {
		t.Fatalf("flow finished too fast for the rate cap: cct=%v", res[0].CCT)
	}
}
