package telemetry

import (
	"cmp"
	"hash/fnv"
	"math/rand"
	"slices"

	"saath/internal/coflow"
)

// Point is one time-series sample: simulated time in seconds and a
// value.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Ring is a fixed-capacity ring buffer of points. Once full, each push
// overwrites the oldest entry, so the ring always holds the exact tail
// window of the stream in O(capacity) memory.
type Ring struct {
	buf  []Point
	head int // next write position
	full bool
}

// NewRing returns a ring holding at most capacity (> 0) points.
func NewRing(capacity int) *Ring {
	return &Ring{buf: make([]Point, capacity)} // construction; Observe gets here only on first sight of a tracked CoFlow, at most Spec.ProgressCoFlows times a run
}

// Push appends p, evicting the oldest point when full.
func (r *Ring) Push(p Point) {
	r.buf[r.head] = p
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
		r.full = true
	}
}

// Halves returns the stored points oldest-first, as the ring holds
// them: older, then newer. Both alias the ring.
func (r *Ring) Halves() (older, newer []Point) {
	if r.full {
		older = r.buf[r.head:]
	}
	return older, r.buf[:r.head]
}

// indexed pairs a point with its position in the stream so reservoir
// samples can be restored to stream order on export.
type indexed struct {
	idx int64
	p   Point
}

// Reservoir keeps a uniform sample of an unbounded stream (Vitter's
// algorithm R). The RNG is seeded explicitly, so for a fixed seed and
// input sequence the retained sample is identical on every run — the
// property that keeps sweep output byte-identical at any parallelism.
// A stream that never fills the reservoir draws nothing, so the RNG is
// made at the first push past capacity, where the first draw is.
type Reservoir struct {
	rng   *rand.Rand // nil until the stream overflows
	seed  int64
	seen  int64
	items []indexed
	cap   int
}

// NewReservoir returns a reservoir of the given capacity (> 0) and seed.
func NewReservoir(capacity int, seed int64) *Reservoir {
	return &Reservoir{seed: seed, cap: capacity}
}

// Push offers p to the reservoir.
func (r *Reservoir) Push(p Point) {
	r.seen++
	if len(r.items) < r.cap {
		if r.items == nil {
			r.items = make([]indexed, 0, r.cap) // once: the sample is kept whole
		}
		r.items = append(r.items, indexed{idx: r.seen - 1, p: p})
		return
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.items[j] = indexed{idx: r.seen - 1, p: p}
	}
}

// sample copies the retained points into scratch, reusing its storage,
// and returns them sorted by stream position. The reservoir's own slots
// keep their order, so sampling mid-run leaves later pushes unchanged.
func (r *Reservoir) sample(scratch []indexed) []indexed {
	out := append(scratch[:0], r.items...)
	slices.SortFunc(out, func(a, b indexed) int { return cmp.Compare(a.idx, b.idx) })
	return out
}

// Series is one bounded-memory metric stream: running scalar
// statistics that stay exact regardless of downsampling and, where its
// capacity is non-zero, a reservoir covering the whole run and a ring
// holding the exact tail.
type Series struct {
	name string
	unit string

	count int64
	sum   float64
	max   float64
	last  float64

	ring *Ring      // nil: no tail points
	res  *Reservoir // nil: no whole-run sample
}

func newSeries(name, unit string, ringCap, resCap int, seed int64) *Series {
	s := &Series{name: name, unit: unit}
	if ringCap > 0 {
		s.ring = NewRing(ringCap)
	}
	if resCap > 0 {
		s.res = NewReservoir(resCap, mixSeed(seed, name))
	}
	return s
}

// Record appends one sample at simulated time t.
func (s *Series) Record(t coflow.Time, v float64) {
	s.count++
	s.sum += v
	if v > s.max || s.count == 1 {
		s.max = v
	}
	s.last = v
	p := Point{T: t.Seconds(), V: v}
	if s.ring != nil {
		s.ring.Push(p)
	}
	if s.res != nil {
		s.res.Push(p)
	}
}

// Mean returns the exact mean over every recorded sample.
func (s *Series) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Export merges the reservoir (full-run coverage) with the ring (exact
// tail), deduplicated by stream position, into one dump; a series with
// neither exports its scalars and nil Points. The reservoir is sorted in
// scratch (nil is fine), which it returns for the next series to reuse.
func (s *Series) Export(scratch []indexed) (SeriesDump, []indexed) {
	d := SeriesDump{Name: s.name, Unit: s.unit, Count: s.count, Mean: s.Mean(), Max: s.max, Last: s.last}
	if s.ring == nil && s.res == nil {
		return d, scratch // Points stays nil: none were collected
	}
	var older, newer []Point
	if s.ring != nil {
		older, newer = s.ring.Halves()
	}
	sample := scratch[:0]
	if s.res != nil {
		sample = s.res.sample(scratch)
	}
	tailStart := s.count - int64(len(older)+len(newer))
	d.Points = make([]Point, 0, len(sample)+len(older)+len(newer))
	for _, it := range sample {
		if it.idx < tailStart {
			d.Points = append(d.Points, it.p)
		}
	}
	d.Points = append(append(d.Points, older...), newer...)
	return d, sample
}

// Histogram is a fixed-bucket histogram over non-negative values:
// counts per upper bound plus an overflow bucket, with exact running
// sum and max. Memory is constant in the number of observations.
type Histogram struct {
	name     string
	bounds   []float64 // ascending upper bounds (v <= bound)
	counts   []int64   // len(bounds)
	overflow int64
	total    int64
	sum      float64
	max      float64
}

// DefaultCountBounds suits small-integer distributions (per-port queue
// lengths, blocked-CoFlow counts k_c): powers of two up to 256.
func DefaultCountBounds() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// NewHistogram returns a histogram with the given ascending upper
// bounds; values above the last bound land in the overflow bucket.
func NewHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultCountBounds()
	}
	return &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)),
	}
}

// Add records one observation.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records n observations of v at once. The sum moves by v·n, which
// is what n additions of v would give whenever every value and partial
// sum is an integer below 2^53 — as the Suite's counts are.
func (h *Histogram) AddN(v float64, n int64) {
	if n <= 0 {
		return
	}
	h.total += n
	h.sum += v * float64(n)
	if v > h.max || h.total == n {
		h.max = v
	}
	// Bucket count is ~10; linear scan beats binary search at this size.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i] += n
			return
		}
	}
	h.overflow += n
}

// Export dumps the histogram.
func (h *Histogram) Export() HistogramDump {
	buckets := make([]Bucket, len(h.bounds))
	for i := range h.bounds {
		buckets[i] = Bucket{LE: h.bounds[i], Count: h.counts[i]}
	}
	return HistogramDump{
		Name:     h.name,
		Count:    h.total,
		Sum:      h.sum,
		Max:      h.max,
		Buckets:  buckets,
		Overflow: h.overflow,
	}
}

// mixSeed derives a per-series RNG seed from the suite seed and the
// series name (FNV-1a), so sibling series sample independently but
// reproducibly.
func mixSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	s := int64(h.Sum64())
	if s == 0 {
		s = 1
	}
	return s
}
