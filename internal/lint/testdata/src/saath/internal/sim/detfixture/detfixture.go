// Package detfixture exercises detcheck: its import path sits under
// saath/internal/sim, a determinism-critical prefix.
package detfixture

import "sort"

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
