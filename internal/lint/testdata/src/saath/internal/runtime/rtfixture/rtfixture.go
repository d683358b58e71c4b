// Package rtfixture proves the detcheck package allowlist: its path
// sits under saath/internal/runtime, whose state never reaches a
// study's bytes, so nothing here is flagged.
package rtfixture

func Sum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // allowlisted package: no finding
		sum += v
	}
	return sum
}
