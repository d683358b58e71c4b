package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"saath/internal/study"
)

// Chaos injects worker faults at the driver/backend boundary. Every
// fault targets the FIRST attempt of its shard, so a correct
// retry/re-queue path recovers and the merged output stays
// byte-identical to a fault-free run; what the fault exercised is
// recorded in the fleet report. A value of -1 (the NewChaos default)
// disables a fault.
type Chaos struct {
	// KillShard: kill the worker process right after its first progress
	// event — a mid-run crash with partial work done.
	KillShard int
	// HangShard: keep the process alive but stop delivering its events
	// after the first progress event, so only the driver's stall
	// detector can save the shard.
	HangShard int
	// CorruptShard: mangle the shard's dump payload in flight; the
	// driver's validation must reject it and retry.
	CorruptShard int
	// SlowShard: delay every event by SlowDelay — a straggling worker,
	// not a dead one. The shard must still succeed on attempt 1.
	SlowShard int
	// SlowDelay is the per-event delay for SlowShard (default 20ms).
	SlowDelay time.Duration
}

// NewChaos returns a Chaos with every fault disabled.
func NewChaos() *Chaos {
	return &Chaos{KillShard: -1, HangShard: -1, CorruptShard: -1, SlowShard: -1}
}

// ParseChaos parses the CLI fault spec: comma-separated mode=shard
// pairs, e.g. "kill=0,corrupt=3". Modes: kill, hang, corrupt, slow.
func ParseChaos(spec string) (*Chaos, error) {
	c := NewChaos()
	if spec == "" {
		return c, nil
	}
	for _, part := range strings.Split(spec, ",") {
		mode, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fleet: bad chaos spec %q (want mode=shard)", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("fleet: bad chaos shard in %q", part)
		}
		switch mode {
		case "kill":
			c.KillShard = n
		case "hang":
			c.HangShard = n
		case "corrupt":
			c.CorruptShard = n
		case "slow":
			c.SlowShard = n
		default:
			return nil, fmt.Errorf("fleet: unknown chaos mode %q (kill|hang|corrupt|slow)", mode)
		}
	}
	return c, nil
}

// describe lists the active faults for the fleet report.
func (c *Chaos) describe() []string {
	if c == nil {
		return nil
	}
	var out []string
	add := func(mode string, shard int) {
		if shard >= 0 {
			out = append(out, fmt.Sprintf("%s=%d", mode, shard))
		}
	}
	add("kill", c.KillShard)
	add("hang", c.HangShard)
	add("corrupt", c.CorruptShard)
	add("slow", c.SlowShard)
	return out
}

// wrap interposes the fault, if any, on a freshly launched worker.
func (c *Chaos) wrap(p Proc, t Task) Proc {
	if c == nil || t.Attempt != 1 {
		return p
	}
	var mode chaosMode
	switch t.Shard {
	case c.KillShard:
		mode = chaosKill
	case c.HangShard:
		mode = chaosHang
	case c.CorruptShard:
		mode = chaosCorrupt
	case c.SlowShard:
		mode = chaosSlow
	default:
		return p
	}
	delay := c.SlowDelay
	if delay <= 0 {
		delay = 20 * time.Millisecond
	}
	cp := &chaosProc{Proc: p, mode: mode, delay: delay}
	cp.rd, cp.wr = io.Pipe()
	go cp.relay()
	return cp
}

type chaosMode int

const (
	chaosKill chaosMode = iota + 1
	chaosHang
	chaosCorrupt
	chaosSlow
)

// chaosProc re-streams the inner worker's events through a pipe,
// applying its fault. Kill and Wait pass through to the real process —
// the driver's remedies act on the actual worker.
type chaosProc struct {
	Proc
	mode  chaosMode
	delay time.Duration
	rd    *io.PipeReader
	wr    *io.PipeWriter
}

func (p *chaosProc) Events() io.ReadCloser { return p.rd }

// relay forwards inner events until the fault triggers. It always
// drains the inner stream to EOF so the worker never blocks on a full
// stdout pipe unless the fault wants exactly that.
func (p *chaosProc) relay() {
	inner := NewEventReader(p.Proc.Events())
	progressed := 0
	silent := false
	for {
		ev, err := inner.Next()
		if err != nil {
			// Inner stream over (EOF, kill, or corrupt-at-source): surface
			// the same end to the driver unless we went silent (hang keeps
			// the pipe open so the driver sees a stall, not an exit).
			if !silent {
				p.wr.CloseWithError(err)
			}
			return
		}
		if ev.Type == EventProgress {
			progressed++
		}
		switch p.mode {
		case chaosKill:
			if progressed >= 1 {
				forward(p.wr, ev)
				p.Proc.Kill()
				// End the stream at the kill point: a fast worker may have
				// buffered further events (even its dump) before dying, but a
				// crashed process's output stops where the crash landed.
				p.wr.Close()
				for {
					if _, err := inner.Next(); err != nil {
						return
					}
				}
			}
		case chaosHang:
			if progressed >= 1 && !silent {
				forward(p.wr, ev)
				silent = true // alive but mute from here on
				continue
			}
			if silent {
				continue // drain without forwarding
			}
		case chaosCorrupt:
			if ev.Type == EventDump && ev.Dump != nil {
				// Flip the grid fingerprint and re-encode: a well-formed dump
				// (checksum intact) that fails validation.
				if d, err := study.ReadShard(bytes.NewReader(ev.Dump.Dump)); err == nil {
					d.KeysHash = strings.Repeat("deadbeef", 8)
					var buf bytes.Buffer
					d.Encode(&buf)
					ev.Dump.Dump = buf.Bytes()
				}
			}
		case chaosSlow:
			time.Sleep(p.delay)
		}
		forward(p.wr, ev)
	}
}

// forward re-encodes one event onto the pipe; a closed pipe (driver
// already gave up on this attempt) just ends the relay's usefulness.
func forward(w io.Writer, ev *Event) {
	WriteEvent(w, ev)
}

// chaosBackend wraps a Backend so every launched proc passes through
// the fault injector.
type chaosBackend struct {
	Backend
	chaos *Chaos
}

func (b *chaosBackend) Launch(ctx context.Context, t Task) (Proc, error) {
	p, err := b.Backend.Launch(ctx, t)
	if err != nil {
		return nil, err
	}
	return b.chaos.wrap(p, t), nil
}
