// Package obs is the execution-observability layer: run-trace spans,
// engine introspection counters, run manifests, profiling hooks, and
// the derived saturation/capacity analytics — how the simulator
// executed, not just what it computed.
//
// Everything in this package is out-of-band by construction. Spans and
// counters record wall-clock and execution-shape facts into a side
// channel (the Recorder and its Manifest); they never feed simulation
// state, RNG draw order, or the deterministic Summary/shard exports,
// so every byte-identity golden holds with observability enabled. The
// engine counters are plain int fields behind a nil check — attaching
// no sink costs zero allocations per event dispatch (guarded
// by the steady-state alloc tests in internal/sim), and attaching one
// costs increments only.
//
// The dependency direction is obs → {telemetry, report, stdlib}:
// internal/sim, internal/sweep and internal/study all import obs, so
// obs must not import them. Counters export through the existing
// telemetry dump types (Metrics, HistogramDump), so every renderer and
// JSON consumer built for telemetry works on engine introspection
// unchanged.
package obs
