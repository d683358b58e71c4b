package trace

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

	"saath/internal/coflow"
)

// SynthConfig controls the seeded synthetic workload generators. The
// zero value is not usable; start from DefaultFBConfig or
// DefaultOSPConfig.
type SynthConfig struct {
	Seed       int64
	NumPorts   int
	NumCoFlows int

	// MeanInterArrival is the mean of the exponential arrival gaps.
	// Real traces span hours; the default compresses time so that the
	// simulator sustains the same per-port contention the paper
	// reports without hour-long runs.
	MeanInterArrival coflow.Time

	// Workload mix, following the published FB-trace marginals.
	SingleFlowFrac   float64 // CoFlows with exactly one flow (FB: 23%)
	EqualLengthFrac  float64 // among multi-flow CoFlows: equal flow lengths (FB: 50/77)
	WideFracNarrowCF float64 // among multi-flow CoFlows: width > 10 (Table 1 bins 2+4)

	// Fraction of CoFlows with total size <= 100 MB, split by width
	// class, matching Table 1 (bin-1/(bin-1+bin-3), bin-2/(bin-2+bin-4)).
	SmallFracNarrow float64
	SmallFracWide   float64

	// Size ranges (log-uniform sampling).
	MinSmall, MaxSmall coflow.Bytes // total size for "small" CoFlows
	MinLarge, MaxLarge coflow.Bytes // total size for "large" CoFlows
}

// DefaultFBConfig mirrors the Facebook Hive/MapReduce trace statistics
// quoted in §2.3 and Table 1 of the paper: 150 ports, 526 CoFlows, 23%
// single-flow, 50% multi equal-length, bins (54, 14, 12, 20)%.
func DefaultFBConfig(seed int64) SynthConfig {
	return SynthConfig{
		Seed:             seed,
		NumPorts:         150,
		NumCoFlows:       526,
		MeanInterArrival: 150 * coflow.Millisecond,
		SingleFlowFrac:   0.23,
		EqualLengthFrac:  0.50 / 0.77,
		WideFracNarrowCF: 0.34 / 0.77, // bins 2+4 over multi-flow share
		SmallFracNarrow:  0.54 / 0.66,
		SmallFracWide:    0.14 / 0.34,
		MinSmall:         1 * coflow.MB,
		MaxSmall:         100 * coflow.MB,
		MinLarge:         100 * coflow.MB,
		MaxLarge:         20 * coflow.GB,
	}
}

// DefaultOSPConfig models the proprietary online-service-provider
// trace: O(100) ports, O(1000) jobs, and — the property the paper
// highlights — busier ports (more CoFlows queued per port), which
// amplifies FIFO head-of-line blocking of short, narrow CoFlows.
func DefaultOSPConfig(seed int64) SynthConfig {
	return SynthConfig{
		Seed:             seed,
		NumPorts:         100,
		NumCoFlows:       1000,
		MeanInterArrival: 40 * coflow.Millisecond, // denser than FB
		SingleFlowFrac:   0.30,
		EqualLengthFrac:  0.55,
		WideFracNarrowCF: 0.35,
		SmallFracNarrow:  0.85, // many short narrow jobs...
		SmallFracWide:    0.30,
		MinSmall:         512 * coflow.KB,
		MaxSmall:         100 * coflow.MB,
		MinLarge:         100 * coflow.MB,
		MaxLarge:         50 * coflow.GB, // ...sharing ports with a heavy tail
	}
}

// SynthFB generates a Facebook-like workload (see DefaultFBConfig).
func SynthFB(seed int64) *Trace { return Synthesize(DefaultFBConfig(seed), "fb-synth") }

// SynthOSP generates an OSP-like workload (see DefaultOSPConfig).
func SynthOSP(seed int64) *Trace { return Synthesize(DefaultOSPConfig(seed), "osp-synth") }

// Validate reports configurations Synthesize cannot generate from: too
// few ports or a non-positive CoFlow count.
func (cfg SynthConfig) Validate() error {
	if cfg.NumPorts < 2 {
		return fmt.Errorf("trace: synth config: NumPorts=%d, need >=2 (a flow needs a sender and a receiver)", cfg.NumPorts)
	}
	if cfg.NumCoFlows <= 0 {
		return fmt.Errorf("trace: synth config: NumCoFlows=%d, need >0", cfg.NumCoFlows)
	}
	return nil
}

// Synthesize generates a trace from cfg. The same (cfg, name) always
// yields byte-identical traces. It panics on a configuration Validate
// rejects: callers with configurations from outside check them first.
func Synthesize(cfg SynthConfig, name string) *Trace {
	if err := cfg.Validate(); err != nil {
		panic("trace.Synthesize: " + err.Error())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Trace{Name: name, NumPorts: cfg.NumPorts}
	var clock coflow.Time
	var perm []int
	for i := 0; i < cfg.NumCoFlows; i++ {
		gap := coflow.Time(rng.ExpFloat64() * float64(cfg.MeanInterArrival))
		clock += gap
		spec := synthCoflow(rng, &perm, cfg, coflow.CoFlowID(i), clock)
		t.Specs = append(t.Specs, spec)
	}
	t.SortByArrival()
	if err := t.Validate(); err != nil {
		panic("trace.Synthesize: generated invalid trace: " + err.Error())
	}
	return t
}

// synthCoflow draws one CoFlow; perm is samplePorts' buffer.
func synthCoflow(rng *rand.Rand, perm *[]int, cfg SynthConfig, id coflow.CoFlowID, arrival coflow.Time) *coflow.Spec {
	single := rng.Float64() < cfg.SingleFlowFrac

	var mappers, reducers int
	wide := false
	if single {
		mappers, reducers = 1, 1
	} else {
		wide = rng.Float64() < cfg.WideFracNarrowCF
		if wide {
			// width in (10, ~600], heavy-tailed via log-uniform area.
			area := math.Exp(logUniform(rng, math.Log(11), math.Log(600)))
			reducers = 1 + rng.Intn(int(math.Sqrt(area))+1)
			mappers = int(area)/reducers + 1
		} else {
			// width in [2, 10]
			w := 2 + rng.Intn(9)
			mappers = 1 + rng.Intn(min(w, 3))
			reducers = (w + mappers - 1) / mappers
		}
	}
	if mappers > cfg.NumPorts {
		mappers = cfg.NumPorts
	}
	if reducers > cfg.NumPorts {
		reducers = cfg.NumPorts
	}
	width := mappers * reducers

	smallFrac := cfg.SmallFracNarrow
	if wide {
		smallFrac = cfg.SmallFracWide
	}
	var total coflow.Bytes
	if rng.Float64() < smallFrac {
		total = logUniformBytes(rng, cfg.MinSmall, cfg.MaxSmall)
	} else {
		total = logUniformBytes(rng, cfg.MinLarge, cfg.MaxLarge)
	}
	if total < coflow.Bytes(width) {
		total = coflow.Bytes(width) // at least one byte per flow
	}

	srcs := samplePorts(rng, perm, cfg.NumPorts, mappers)
	dsts := samplePorts(rng, perm, cfg.NumPorts, reducers)

	equal := single || rng.Float64() < cfg.EqualLengthFrac
	reducerShare := make([]float64, reducers)
	if equal {
		for i := range reducerShare {
			reducerShare[i] = 1 / float64(reducers)
		}
	} else {
		// Log-normal weights produce skewed per-reducer totals and
		// hence unequal flow lengths.
		var sum float64
		for i := range reducerShare {
			reducerShare[i] = math.Exp(rng.NormFloat64() * 1.0)
			sum += reducerShare[i]
		}
		for i := range reducerShare {
			reducerShare[i] /= sum
		}
	}

	spec := &coflow.Spec{ID: id, Arrival: arrival, Flows: make([]coflow.FlowSpec, 0, width)}
	for r := 0; r < reducers; r++ {
		perFlow := coflow.Bytes(float64(total) * reducerShare[r] / float64(mappers))
		if perFlow <= 0 {
			perFlow = 1
		}
		for m := 0; m < mappers; m++ {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: srcs[m], Dst: dsts[r], Size: perFlow})
		}
	}
	return spec
}

// FanConfig controls the incast and broadcast synthetic families:
// CoFlows whose flows all converge on one receiver (incast, the
// shuffle/aggregation pattern) or all originate at one sender
// (broadcast). Both concentrate load on a small set of hotspot ports,
// producing the queue buildup and head-of-line blocking the telemetry
// subsystem is built to observe.
type FanConfig struct {
	Seed       int64
	NumPorts   int
	NumCoFlows int

	// MeanInterArrival is the mean of the exponential arrival gaps.
	MeanInterArrival coflow.Time

	// Degree is the fan-in (incast) or fan-out (broadcast) width: the
	// number of distinct peer ports per CoFlow. Clamped to NumPorts-1.
	Degree int

	// Skew is the log-normal sigma of per-flow sizes; 0 yields equal
	// flow lengths, larger values increasingly unequal ones (the
	// out-of-sync trigger of §2.3).
	Skew float64

	// Hotspots bounds the distinct aggregator (incast) or root
	// (broadcast) ports; CoFlows rotate through this set, guaranteeing
	// port sharing. 0 means every port may be a hotspot.
	Hotspots int

	// Per-CoFlow total size range (log-uniform sampling).
	MinSize, MaxSize coflow.Bytes
}

// DefaultIncastConfig models a dense aggregation workload: 60 ports,
// 300 CoFlows fanning 12 senders each into one of 6 hot aggregator
// ports, with moderate flow-length skew.
func DefaultIncastConfig(seed int64) FanConfig {
	return FanConfig{
		Seed:             seed,
		NumPorts:         60,
		NumCoFlows:       300,
		MeanInterArrival: 30 * coflow.Millisecond,
		Degree:           12,
		Skew:             0.5,
		Hotspots:         6,
		MinSize:          coflow.MB,
		MaxSize:          500 * coflow.MB,
	}
}

// DefaultBroadcastConfig mirrors DefaultIncastConfig for one-to-many
// distribution: 6 hot root ports each fanning out to 12 receivers. The
// generator seed is salted with the family name so that broadcast and
// incast traces built from the same seed draw from independent RNG
// streams instead of mirroring each other flow for flow.
func DefaultBroadcastConfig(seed int64) FanConfig {
	cfg := DefaultIncastConfig(seed)
	cfg.Seed = saltSeed(seed, "broadcast")
	return cfg
}

// SynthIncast generates an incast workload (see DefaultIncastConfig).
func SynthIncast(seed int64) *Trace {
	return mustFan(SynthesizeIncast(DefaultIncastConfig(seed), "incast-synth"))
}

// SynthBroadcast generates a broadcast workload (see
// DefaultBroadcastConfig).
func SynthBroadcast(seed int64) *Trace {
	return mustFan(SynthesizeBroadcast(DefaultBroadcastConfig(seed), "broadcast-synth"))
}

// mustFan unwraps the fan generators for the default configurations,
// which are valid by construction.
func mustFan(tr *Trace, err error) *Trace {
	if err != nil {
		panic("trace: default fan config rejected: " + err.Error())
	}
	return tr
}

// Validate reports configuration errors the fan generators cannot
// repair: too few ports, a non-positive CoFlow count or degree, more
// hotspots than ports, or an inverted size range. Degrees above
// NumPorts-1 are not errors — the generators clamp them, since "fan as
// wide as the cluster allows" is a meaningful request.
func (cfg FanConfig) Validate() error {
	if cfg.NumPorts < 2 {
		return fmt.Errorf("trace: fan config: NumPorts=%d, need >=2 (a fan needs a root and at least one peer)", cfg.NumPorts)
	}
	if cfg.NumCoFlows <= 0 {
		return fmt.Errorf("trace: fan config: NumCoFlows=%d, need >0", cfg.NumCoFlows)
	}
	if cfg.Degree <= 0 {
		return fmt.Errorf("trace: fan config: Degree=%d, need >0 peers per coflow", cfg.Degree)
	}
	if cfg.Hotspots > cfg.NumPorts {
		return fmt.Errorf("trace: fan config: Hotspots=%d exceeds NumPorts=%d", cfg.Hotspots, cfg.NumPorts)
	}
	if cfg.MaxSize > 0 && cfg.MinSize > cfg.MaxSize {
		return fmt.Errorf("trace: fan config: MinSize=%d > MaxSize=%d", cfg.MinSize, cfg.MaxSize)
	}
	return nil
}

// SynthesizeIncast generates an incast trace from cfg: every CoFlow is
// Degree senders converging on one aggregator port. The same (cfg,
// name) always yields byte-identical traces. Invalid configurations
// (see FanConfig.Validate) return a descriptive error.
func SynthesizeIncast(cfg FanConfig, name string) (*Trace, error) {
	return synthesizeFan(cfg, name, true)
}

// SynthesizeBroadcast generates a broadcast trace from cfg: every
// CoFlow is one root port fanning out to Degree receivers.
func SynthesizeBroadcast(cfg FanConfig, name string) (*Trace, error) {
	return synthesizeFan(cfg, name, false)
}

func synthesizeFan(cfg FanConfig, name string, incast bool) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MeanInterArrival <= 0 {
		cfg.MeanInterArrival = 30 * coflow.Millisecond
	}
	if cfg.Degree > cfg.NumPorts-1 {
		cfg.Degree = cfg.NumPorts - 1
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = coflow.MB
	}
	if cfg.MaxSize < cfg.MinSize {
		cfg.MaxSize = cfg.MinSize
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var perm []int
	hot := samplePorts(rng, &perm, cfg.NumPorts, cfg.NumPorts) // all ports, shuffled then sorted
	if cfg.Hotspots > 0 && cfg.Hotspots < len(hot) {
		hot = samplePorts(rng, &perm, cfg.NumPorts, cfg.Hotspots)
	}

	t := &Trace{Name: name, NumPorts: cfg.NumPorts}
	var clock coflow.Time
	for i := 0; i < cfg.NumCoFlows; i++ {
		clock += coflow.Time(rng.ExpFloat64() * float64(cfg.MeanInterArrival))
		root := hot[rng.Intn(len(hot))]
		peers := samplePeers(rng, &perm, cfg.NumPorts, cfg.Degree, root)
		total := logUniformBytes(rng, cfg.MinSize, cfg.MaxSize)
		if total < coflow.Bytes(cfg.Degree) {
			total = coflow.Bytes(cfg.Degree)
		}
		shares := skewedShares(rng, cfg.Degree, cfg.Skew)

		spec := &coflow.Spec{ID: coflow.CoFlowID(i), Arrival: clock}
		for f, peer := range peers {
			size := coflow.Bytes(float64(total) * shares[f])
			if size <= 0 {
				size = 1
			}
			fs := coflow.FlowSpec{Src: peer, Dst: root, Size: size}
			if !incast {
				fs.Src, fs.Dst = root, peer
			}
			spec.Flows = append(spec.Flows, fs)
		}
		t.Specs = append(t.Specs, spec)
	}
	t.SortByArrival()
	if err := t.Validate(); err != nil {
		panic("trace.synthesizeFan: generated invalid trace: " + err.Error())
	}
	return t, nil
}

// samplePeers draws n distinct ports from [0, numPorts) excluding
// exclude, sorted ascending; perm is permute's buffer.
func samplePeers(rng *rand.Rand, perm *[]int, numPorts, n int, exclude coflow.PortID) []coflow.PortID {
	if n > numPorts-1 {
		n = numPorts - 1
	}
	out := make([]coflow.PortID, 0, n)
	for _, p := range permute(rng, perm, numPorts) {
		if coflow.PortID(p) == exclude {
			continue
		}
		out = append(out, coflow.PortID(p))
		if len(out) == n {
			break
		}
	}
	slices.Sort(out)
	return out
}

// skewedShares returns n positive fractions summing to 1: equal when
// sigma is 0, log-normally skewed otherwise.
func skewedShares(rng *rand.Rand, n int, sigma float64) []float64 {
	shares := make([]float64, n)
	if sigma <= 0 {
		for i := range shares {
			shares[i] = 1 / float64(n)
		}
		return shares
	}
	var sum float64
	for i := range shares {
		shares[i] = math.Exp(rng.NormFloat64() * sigma)
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// samplePorts draws n distinct ports uniformly from [0, numPorts);
// perm is permute's buffer.
func samplePorts(rng *rand.Rand, perm *[]int, numPorts, n int) []coflow.PortID {
	if n > numPorts {
		n = numPorts
	}
	drawn := permute(rng, perm, numPorts)[:n]
	slices.Sort(drawn)
	out := make([]coflow.PortID, n)
	for i, p := range drawn {
		out[i] = coflow.PortID(p)
	}
	return out
}

// permute is rng.Perm(n) — math/rand's own loop, so the same draws and
// the same permutation — into *buf, which it keeps for the next call: a
// synthesized trace draws a permutation of its ports per CoFlow.
func permute(rng *rand.Rand, buf *[]int, n int) []int {
	m := slices.Grow((*buf)[:0], n)[:n]
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	*buf = m
	return m
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

func logUniformBytes(rng *rand.Rand, lo, hi coflow.Bytes) coflow.Bytes {
	v := math.Exp(logUniform(rng, math.Log(float64(lo)), math.Log(float64(hi))))
	b := coflow.Bytes(v)
	if b < lo {
		b = lo
	}
	if b > hi {
		b = hi
	}
	return b
}

// saltSeed mixes a base seed with a label into a stable non-zero RNG
// seed (FNV-1a), so sibling generator families (incast vs broadcast)
// draw from independent streams while staying a pure function of the
// caller's seed.
func saltSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, label)
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}
