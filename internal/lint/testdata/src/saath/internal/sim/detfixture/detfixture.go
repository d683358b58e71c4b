// Package detfixture exercises detcheck: its import path sits under
// saath/internal/sim, a determinism-critical prefix.
package detfixture

import (
	"math/rand"
	"sort"
	"time"

	"saath/internal/coflow"
)

// --- wall clock ---

func wallClock() time.Duration {
	start := time.Now()      // want "time.Now reads the wall clock"
	return time.Since(start) // want "time.Since reads the wall clock"
}

func wallClockSleep() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
}

func wallClockLineAccepted() time.Time {
	//saath:wallclock suppressed: out-of-band by contract
	return time.Now()
}

func wallClockTrailingAccepted() time.Time {
	t := time.Now() //saath:wallclock
	return t
}

// wallClockFuncAccepted is exempt wholesale via its doc comment.
//
//saath:wallclock the whole helper is out-of-band
func wallClockFuncAccepted() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// --- global math/rand ---

func globalRand() int {
	return rand.Intn(10) // want "process-global random source"
}

func globalRandFloat() float64 {
	return rand.Float64() // want "process-global random source"
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // constructors are fine
	return r.Intn(10)                   // method on a seeded *rand.Rand is fine
}

// --- map iteration order ---

func mapOrderLeaks(m map[string]int) []int {
	var out []int
	for _, v := range m { // want "range over map iterates in nondeterministic order"
		out = append(out, v)
	}
	return out
}

func mapFloatAccumulation(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want "range over map iterates in nondeterministic order"
		sum += v // float += is order-dependent in the low bits
	}
	return sum
}

func mapCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort idiom: no finding
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mapCollectNoSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want "range over map iterates in nondeterministic order"
		keys = append(keys, k)
	}
	return keys
}

func mapIntCounting(m map[string]int) int {
	n := 0
	for range m { // integer counting commutes: no finding
		n++
	}
	return n
}

func mapIntSum(m map[string]int) int {
	sum := 0
	for _, v := range m { // integer += commutes: no finding
		sum += v
	}
	return sum
}

func mapRekey(m map[string]int, out map[string]bool) {
	for k := range m { // distinct-key store + delete: no finding
		out[k] = true
		delete(m, k)
	}
}

func mapAnnotated(m map[string]float64) float64 {
	var worst float64
	//saath:order-independent max over map values is commutative
	for _, v := range m {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// --- progress stamp ---

func sentUnstamped(f *coflow.Flow) {
	f.Sent += 10 // want "Flow.Sent is written in a function that calls neither NoteProgress nor Invalidate"
}

func sentUnstampedForms(c *coflow.CoFlow) {
	c.Flows[0].Sent++                          // want "Flow.Sent is written"
	c.Flows[1].Sent, c.Flows[1].Done = 5, true // want "Flow.Sent is written" "Flow.Done is written"
}

func sentNoted(c *coflow.CoFlow, moved int64) {
	for _, f := range c.Flows {
		f.Sent += moved // the CoFlow is stamped below: no finding
	}
	c.NoteProgress()
}

func sentInvalidated(c *coflow.CoFlow) {
	c.Flows[0].Sent, c.Flows[0].Done = 0, false // Invalidate covers it: no finding
	c.Invalidate()
}

func sentFinishedOnly(c *coflow.CoFlow, f *coflow.Flow) {
	f.Sent = 100 // want "Flow.Sent is written"
	c.Finish(f)  // Finish stamps the summary, not the progress of the flows left
}

func sentReset(f *coflow.Flow) {
	f.Sent = 0 //saath:progress-ok sentNoted, the only caller, stamps the CoFlow
}

func sentRead(f *coflow.Flow) int64 {
	left := 100 - f.Sent // a read is not a write
	return left
}

// --- flow state: Done and Available ---

func doneUnstamped(f *coflow.Flow) {
	f.Done = true // want "Flow.Done is written in a function that calls neither Finish nor Invalidate"
}

func availableUnstamped(c *coflow.CoFlow) {
	c.Flows[0].Available = false // want "Flow.Available is written in a function that does not call Invalidate"
}

func doneNotedOnly(c *coflow.CoFlow, f *coflow.Flow) {
	f.Sent, f.Done = 100, true // want "Flow.Done is written"
	c.NoteProgress()           // a progress stamp does not cover the summary
}

func doneFinished(c *coflow.CoFlow, f *coflow.Flow) {
	f.Done = true // Finish keeps the summary: no finding
	c.Finish(f)
}

func availableFinishedOnly(c *coflow.CoFlow, f *coflow.Flow) {
	f.Available = false // want "Flow.Available is written"
	c.Finish(f)         // Finish takes finished flows out, it does not rebuild the sendable lists
}

func availableInvalidated(c *coflow.CoFlow) {
	for _, f := range c.Flows {
		f.Available = true // Invalidate covers it: no finding
	}
	c.Invalidate()
}

func availableEscaped(f *coflow.Flow) {
	f.Available = false //saath:progress-ok availableInvalidated, the only caller, invalidates the CoFlow
}
