package main

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
)

// compareFiles prints, per workload and end-to-end metric, both
// medians, how much worse the second is, the bound, the wider of the
// two repetition spreads and a verdict:
//
//	ok          no worse than the bound
//	regressed   worse than the bound
//	unresolved  the spread between repetitions exceeds the bound, so the
//	            medians cannot tell — unless every repetition of the
//	            second reads better than every one of the first
//	differs     a quantity that repeats exactly does not
//
// It refuses to compare runs of different inputs or settings, and
// fails unless every row reads ok.
func compareFiles(w io.Writer, fileA, fileB string) error {
	var a, b suiteResult
	if err := readJSONFile(fileA, &a); err != nil {
		return err
	}
	if err := readJSONFile(fileB, &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tspread\tverdict")
	bad := 0
	row := func(wl, metric string, va, vb, worse, bound, spread float64, verdict string) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%s\n", wl, metric, va, vb, 100*worse, 100*bound, 100*spread, verdict)
		if verdict != "ok" {
			bad++
		}
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			ra, rb := a.find(wl.name, traced), b.find(wl.name, traced)
			if ra == nil || rb == nil {
				return fmt.Errorf("%s (traced %t): missing from one of the results", wl.name, traced)
			}
			if err := sameSettings(ra, rb); err != nil {
				return fmt.Errorf("refusing to compare %s: %w", wl.name, err)
			}
			exact := func(name string, va, vb float64) {
				verdict := "ok"
				if va != vb {
					verdict = "differs"
				}
				row(wl.name, name, va, vb, 0, 0, 0, verdict)
			}
			if traced {
				exact("sim.epochs", ra.Metrics["sim.epochs"].Value, rb.Metrics["sim.epochs"].Value)
				continue
			}
			exact("ops_failed", float64(ra.OpsFailed), float64(rb.OpsFailed))
			for _, d := range endToEnd {
				ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				if simulated[d.Name] {
					exact(d.Name, ma.Value, mb.Value)
					continue
				}
				worse := (mb.Value - ma.Value) / ma.Value
				if d.Better == "higher" {
					worse = -worse
				}
				spread := max(iqrShare(ma.Samples), iqrShare(mb.Samples))
				if d.Name == "setup_s" {
					// The first set-up of a process is cold by construction,
					// so its samples are not repetitions of one another.
					spread = 0
				}
				verdict := "ok"
				switch {
				case spread > d.Bound && !allBetter(d, ma.Samples, mb.Samples):
					verdict = "unresolved"
				case worse > d.Bound:
					verdict = "regressed"
				}
				row(wl.name, d.Name, ma.Value, mb.Value, worse, d.Bound, spread, verdict)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows outside the benchmark's bounds", bad)
	}
	return nil
}

// simulated marks the end-to-end metrics read off the simulated clock:
// for one input they repeat exactly, so any difference is a change of
// behaviour, whatever the bound.
var simulated = map[string]bool{"cct_p50_s": true, "cct_p90_s": true, "cct_avg_s": true}

// sameSettings reports why two runs of one workload cannot be compared.
func sameSettings(a, b *runResult) error {
	switch {
	case a.InputsDigest != b.InputsDigest:
		return fmt.Errorf("inputs_digest %s vs %s", a.InputsDigest, b.InputsDigest)
	case a.Seed != b.Seed:
		return fmt.Errorf("seed %d vs %d", a.Seed, b.Seed)
	case a.Scale != b.Scale:
		return fmt.Errorf("scale %s vs %s", a.Scale, b.Scale)
	case a.Seconds != b.Seconds || a.Setups != b.Setups:
		return fmt.Errorf("repetitions: %v s and %d set-ups vs %v s and %d", a.Seconds, a.Setups, b.Seconds, b.Setups)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	return nil
}

// allBetter reports whether every sample of b reads better than every
// sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// iqrShare is the distance between the first and third quartile of xs
// as a share of their median; quartiles as Python's
// statistics.quantiles(xs, n=4) gives them.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / median(s)
}
