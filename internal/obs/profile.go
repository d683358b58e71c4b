package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles wires the standard Go profiling outputs behind the CLIs'
// -cpuprofile / -memprofile / -runtime-trace flags. Empty paths are
// disabled.
type Profiles struct {
	CPU   string // pprof CPU profile path
	Mem   string // heap profile path, written at Stop
	Trace string // runtime execution trace path
}

// Start begins CPU profiling and execution tracing as requested. The
// returned stop flushes and closes everything — including the heap
// profile, which is captured at stop time after a GC — and must be
// called before process exit for the outputs to be complete. Start
// cleans up after itself on error; stop is never nil.
func (p Profiles) Start() (stop func() error, err error) {
	var cleanup []func() error
	fail := func(err error) (func() error, error) {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]() //nolint:errcheck — already failing
		}
		return func() error { return nil }, err
	}
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return fail(fmt.Errorf("obs: cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("obs: cpuprofile: %w", err))
		}
		cleanup = append(cleanup, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if p.Trace != "" {
		f, err := os.Create(p.Trace)
		if err != nil {
			return fail(fmt.Errorf("obs: runtime-trace: %w", err))
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("obs: runtime-trace: %w", err))
		}
		cleanup = append(cleanup, func() error {
			trace.Stop()
			return f.Close()
		})
	}
	memPath := p.Mem
	return func() error {
		var first error
		for i := len(cleanup) - 1; i >= 0; i-- {
			if err := cleanup[i](); first == nil {
				first = err
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// writeHeapProfile captures the heap profile after a GC, so the dump
// reflects live objects rather than garbage awaiting collection.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: memprofile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: memprofile: %w", err)
	}
	return nil
}
