// Sensitivity example: sweeps the start queue threshold S and the
// arrival-speed factor A through the public API on a small workload
// and prints Saath's and Aalo's speedup over default Aalo at each
// point — Fig. 14(a)/(d) in miniature; the full figure is the fig14
// catalog study (saath-sim -study fig14).
//
//	go run ./examples/sensitivity
package main

import (
	"fmt"
	"log"
	"sort"

	"saath"
)

func workload() *saath.Trace {
	return saath.Synthesize(saath.SynthConfig{
		Seed: 5, NumPorts: 24, NumCoFlows: 80,
		MeanInterArrival: 30 * saath.Millisecond,
		SingleFlowFrac:   0.23, EqualLengthFrac: 0.65, WideFracNarrowCF: 0.44,
		SmallFracNarrow: 0.82, SmallFracWide: 0.41,
		MinSmall: saath.MB, MaxSmall: 100 * saath.MB,
		MinLarge: 100 * saath.MB, MaxLarge: saath.GB,
	}, "sensitivity")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

func main() {
	tr := workload()
	base, err := saath.Simulate(tr, "aalo", saath.SimConfig{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Fig 14(a): sensitivity to start queue threshold S")
	fmt.Println("S        saath   aalo")
	for _, s := range []saath.Bytes{10 * saath.MB, 100 * saath.MB, saath.GB, 10 * saath.GB} {
		p := saath.DefaultParams()
		p.Queues.StartThreshold = s
		sres, err := saath.SimulateWith(tr, "saath", p, saath.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		ares, err := saath.SimulateWith(tr, "aalo", p, saath.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %.2fx   %.2fx\n", fmt.Sprintf("%dMB", s/saath.MB),
			median(saath.Speedups(base, sres)), median(saath.Speedups(base, ares)))
	}

	fmt.Println("\nFig 14(d): sensitivity to arrival speed A (A>1 = arrivals A x faster)")
	fmt.Println("A        saath   aalo")
	for _, a := range []float64{0.5, 1, 2, 4} {
		scaled := tr.Clone()
		scaled.ScaleArrivals(1 / a)
		sres, err := saath.Simulate(scaled, "saath", saath.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		ares, err := saath.Simulate(scaled, "aalo", saath.SimConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8g %.2fx   %.2fx\n", a,
			median(saath.Speedups(base, sres)), median(saath.Speedups(base, ares)))
	}
}
