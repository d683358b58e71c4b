// Study quickstart: declare a small evaluation — two schedulers over
// seeded draws of an FB-like workload, with telemetry and derived
// tables — as one composable saath.NewStudy, and run it on the
// in-process pool. The same declaration shards across machines: run it
// with saath.StudySharded{Index: i, Count: n} per process and export
// each Result with WriteShard; merged, the tables are byte-identical to
// this single-process run (saath-sim -shard / -merge does both for the
// catalog studies).
//
//	go run ./examples/study
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"saath"
)

func main() {
	// The workload: a seeded generator, so every grid seed draws a
	// fresh workload and statistics pool across the draws.
	source := saath.SynthSource("fb-mini", func(seed int64) *saath.Trace {
		return saath.Synthesize(saath.SynthConfig{
			Seed:             seed,
			NumPorts:         30,
			NumCoFlows:       100,
			MeanInterArrival: 40 * saath.Millisecond,
			SingleFlowFrac:   0.23,
			EqualLengthFrac:  0.65,
			WideFracNarrowCF: 0.44,
			SmallFracNarrow:  0.82,
			SmallFracWide:    0.41,
			MinSmall:         saath.MB,
			MaxSmall:         100 * saath.MB,
			MinLarge:         100 * saath.MB,
			MaxLarge:         2 * saath.GB,
		}, "fb-mini")
	})

	// The declaration: validated up front (a typo'd scheduler or a
	// baseline outside the list fails here, before any simulation).
	st, err := saath.NewStudy("quickstart",
		saath.WithTraces(source),
		saath.WithSchedulers("aalo", "saath"),
		saath.WithSeeds(1, 2),
		saath.WithBaseline("aalo"),
		saath.WithTelemetry(saath.TelemetrySpec{Enabled: true}),
		saath.WithDerived(
			saath.DerivedCCT("quickstart — per-scheduler CCT"),
			saath.DerivedSpeedup("quickstart — per-coflow speedup over aalo", ""),
			saath.DerivedCCTCDF("quickstart", 12),
			saath.DerivedTelemetry("quickstart — telemetry (per-interval)"),
		))
	if err != nil {
		log.Fatal(err)
	}

	// The execution backend is pluggable; the tables are a pure
	// function of the declaration, not of who runs it or how wide.
	res, err := st.Run(context.Background(), saath.StudyPool{Parallel: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Err(); err != nil {
		log.Fatal(err)
	}

	tables, err := res.Tables()
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range tables {
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
