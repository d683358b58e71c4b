//go:build !race

package telemetry

// raceEnabled reports whether the race detector instrumented this
// build; allocation-count guards are skipped under it.
const raceEnabled = false
