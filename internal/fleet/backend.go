package fleet

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// Task is one shard execution request handed to a Backend.
type Task struct {
	// Study is the registered study name the worker should build.
	Study string
	// Shard / Of locate the stripe within the driver's partition.
	Shard int
	Of    int
	// Parallel forwards the worker's -parallel flag.
	Parallel int
	// Attempt numbers launches of this shard from 1. Informational —
	// backends may log it; the chaos harness keys on it.
	Attempt int
}

// Proc is a launched worker. The driver reads Events until a dump or
// a failure verdict, then Kills (on failure) and Waits.
type Proc interface {
	// Events is the worker's wire-event stream (its stdout).
	Events() io.ReadCloser
	// Kill forcefully terminates the worker. Idempotent enough for a
	// driver that may kill an already-dead process.
	Kill() error
	// Wait blocks until the process exits, returning its exit error.
	Wait() error
}

// Backend launches workers for tasks. Implementations must tolerate
// concurrent Launch calls — driver worker slots launch independently.
// LocalExec runs subprocesses; the interface is the seam where an ssh
// or k8s backend would slot in.
type Backend interface {
	Name() string
	Launch(ctx context.Context, t Task) (Proc, error)
}

// SaathSimArgs builds the canonical worker command line understood by
// both `saath-sim -shard-stream` and fleet.ChildMain.
func SaathSimArgs(t Task) []string {
	args := []string{
		"-study", t.Study,
		"-shard", fmt.Sprintf("%d/%d", t.Shard, t.Of),
		"-shard-stream",
	}
	if t.Parallel > 0 {
		args = append(args, "-parallel", strconv.Itoa(t.Parallel))
	}
	return args
}

// LocalExec launches workers as subprocesses of Bin on this machine.
type LocalExec struct {
	// Bin is the worker executable (a saath-sim binary, or any program
	// speaking the shard-stream protocol).
	Bin string
	// Args builds the command line for a task; nil uses SaathSimArgs.
	Args func(Task) []string
	// Env entries are appended to the inherited environment.
	Env []string
	// Stderr receives worker diagnostics; nil means os.Stderr.
	Stderr io.Writer
}

// Name implements Backend.
func (b *LocalExec) Name() string { return "local-exec" }

// Launch implements Backend.
func (b *LocalExec) Launch(ctx context.Context, t Task) (Proc, error) {
	argf := b.Args
	if argf == nil {
		argf = SaathSimArgs
	}
	// CommandContext is a safety net: the driver kills explicitly on
	// deadline/stall, but a canceled run must never leak workers.
	cmd := exec.CommandContext(ctx, b.Bin, argf(t)...)
	cmd.Env = append(os.Environ(), b.Env...)
	cmd.Stderr = b.Stderr
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &execProc{cmd: cmd, out: stdout}, nil
}

type execProc struct {
	cmd *exec.Cmd
	out io.ReadCloser
}

func (p *execProc) Events() io.ReadCloser { return p.out }

func (p *execProc) Kill() error {
	if p.cmd.Process == nil {
		return nil
	}
	return p.cmd.Process.Kill()
}

func (p *execProc) Wait() error { return p.cmd.Wait() }
