package study

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"saath/internal/coflow"
	"saath/internal/sweep"
	"saath/internal/telemetry"
)

// The shard dump is an internal, versioned binary format — the one
// serialisation of a ShardDump, the bytes of a shard file:
//
//	magic "saathshd" | version byte
//	header: study, shard, of, jobs, keys_hash
//	per entry: uint32 record length (> 0) | record
//	uint32 0 | entry count | CRC-32C of every preceding byte
//
// Integers are zigzag varints, lengths uvarints, floats raw
// little-endian IEEE-754 bits (so every value, including -0 and NaN
// payloads, survives exactly), strings and lists length-prefixed. A
// list's prefix is its length plus one, zero meaning nil: exports render
// nil and empty slices differently (null vs []), so the distinction
// must survive a merge. cct_by_id is written in ascending ID order,
// which makes the bytes a pure function of the dump; the per-coflow
// column follows it in result order. Version 2 added that column. The reader accepts
// exactly what the writer produces: any other encoding of the same
// value (an over-long varint, unsorted IDs) is rejected.
const (
	shardMagic   = "saathshd"
	shardVersion = 2
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// Encode serialises the dump in the shard format. It does not validate:
// ReadShard shape-checks what it decodes.
func (d *ShardDump) Encode(w io.Writer) error {
	e := &shardEncoder{w: w}
	e.b = append(e.b, shardMagic...)
	e.b = append(e.b, shardVersion)
	e.str(d.Study)
	e.int(int64(d.Shard))
	e.int(int64(d.Of))
	e.int(int64(d.Jobs))
	e.str(d.KeysHash)
	for i := range d.Entries {
		e.b = append(e.b, 0, 0, 0, 0)
		start := len(e.b)
		e.entry(&d.Entries[i])
		binary.LittleEndian.PutUint32(e.b[start-4:], uint32(len(e.b)-start))
		// One entry in memory at a time: a shard's telemetry is megabytes.
		e.flush()
	}
	e.b = append(e.b, 0, 0, 0, 0)
	e.length(len(d.Entries))
	e.b = binary.LittleEndian.AppendUint32(e.b, crc32.Update(e.crc, crc32c, e.b))
	e.flush()
	return e.err
}

type shardEncoder struct {
	w   io.Writer
	b   []byte
	crc uint32 // of everything flushed so far
	err error
}

// flush writes out the pending bytes, folding them into the checksum.
func (e *shardEncoder) flush() {
	e.crc = crc32.Update(e.crc, crc32c, e.b)
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *shardEncoder) int(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *shardEncoder) length(n int) { e.b = binary.AppendUvarint(e.b, uint64(n)) }
func (e *shardEncoder) float(f float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

func (e *shardEncoder) str(s string) {
	e.length(len(s))
	e.b = append(e.b, s...)
}

// list writes a list prefix: 0 for nil, else length+1.
func (e *shardEncoder) list(n int, isNil bool) {
	if isNil {
		e.length(0)
		return
	}
	e.length(n + 1)
}

func (e *shardEncoder) entry(en *sweep.Entry) {
	e.int(int64(en.Index))
	m := &en.Metrics
	e.str(m.Trace)
	e.str(m.Variant)
	e.str(m.Scheduler)
	e.int(m.Seed)
	e.str(m.Error)
	e.int(int64(m.CoFlows))
	e.int(int64(m.Ports))
	e.int(int64(m.Intervals))
	e.float(m.AvgCCT)
	e.float(m.P50CCT)
	e.float(m.P90CCT)
	e.float(m.Makespan)
	e.float(m.Utilization)

	e.list(len(en.CCTs), en.CCTs == nil)
	for _, v := range en.CCTs {
		e.float(v)
	}
	e.list(len(en.CCTByID), en.CCTByID == nil)
	ids := make([]coflow.CoFlowID, 0, len(en.CCTByID))
	for id := range en.CCTByID {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		e.int(int64(id))
		e.int(int64(en.CCTByID[id]))
	}
	e.list(len(en.CoFlows), en.CoFlows == nil)
	for _, r := range en.CoFlows {
		e.int(int64(r.ID))
		e.int(int64(r.Width))
		e.int(int64(r.Bytes))
		e.float(r.SizeDev)
		e.float(r.FCTDev)
	}

	if en.Telemetry == nil {
		e.b = append(e.b, 0)
		return
	}
	e.b = append(e.b, 1)
	e.metrics(en.Telemetry)
}

func (e *shardEncoder) metrics(m *telemetry.Metrics) {
	e.int(m.Intervals)
	e.int(m.Sampled)
	e.list(len(m.Series), m.Series == nil)
	for i := range m.Series {
		s := &m.Series[i]
		e.str(s.Name)
		e.str(s.Unit)
		e.int(s.Count)
		e.float(s.Mean)
		e.float(s.Max)
		e.float(s.Last)
		e.list(len(s.Points), s.Points == nil)
		for _, p := range s.Points {
			e.float(p.T)
			e.float(p.V)
		}
	}
	e.list(len(m.Histograms), m.Histograms == nil)
	for i := range m.Histograms {
		h := &m.Histograms[i]
		e.str(h.Name)
		e.int(h.Count)
		e.float(h.Sum)
		e.float(h.Max)
		e.list(len(h.Buckets), h.Buckets == nil)
		for _, b := range h.Buckets {
			e.float(b.LE)
			e.int(b.Count)
		}
		e.int(h.Overflow)
	}
	e.list(len(m.Heatmaps), m.Heatmaps == nil)
	for i := range m.Heatmaps {
		h := &m.Heatmaps[i]
		e.str(h.Name)
		e.list(len(h.Bounds), h.Bounds == nil)
		for _, b := range h.Bounds {
			e.float(b)
		}
		e.int(h.Intervals)
		e.list(len(h.Ports), h.Ports == nil)
		for j := range h.Ports {
			p := &h.Ports[j]
			e.int(int64(p.Port))
			e.list(len(p.Counts), p.Counts == nil)
			for _, c := range p.Counts {
				e.int(c)
			}
			e.int(p.Overflow)
			e.int(p.Sum)
			e.int(p.Max)
		}
	}
}

// Minimum encoded sizes of list elements: a list prefix claiming more
// elements than the bytes left could hold is rejected before anything
// is allocated for it, which bounds the reader's memory by its input.
const (
	minFloat    = 8
	minVarint   = 1
	minPoint    = 2 * minFloat
	minIDPair   = 2 * minVarint
	minRecord   = 3*minVarint + 2*minFloat
	minSeries   = 2 + minVarint + 3*minFloat + 1 // name, unit, count, mean/max/last, points
	minBucket   = minFloat + minVarint
	minHist     = 1 + minVarint + 2*minFloat + 1 + minVarint
	minHeatPort = 5 * minVarint
	minHeatmap  = 1 + 1 + minVarint + 1
)

var (
	errShardTruncated = errors.New("truncated")
	errShardEncoding  = errors.New("invalid encoding")
)

// shardDecoder reads from b[off:end]. The first failure sticks; every
// later read returns zero values, so decode paths check err once per
// structure rather than per field.
type shardDecoder struct {
	b        []byte
	off, end int
	err      error
}

func (d *shardDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, or nil after a failure.
func (d *shardDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.end-d.off {
		d.fail(errShardTruncated)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *shardDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:d.end])
	switch {
	case n == 0:
		d.fail(errShardTruncated)
		return 0
	case n < 0, n > 1 && d.b[d.off+n-1] == 0: // overflow, or padded with a zero group
		d.fail(errShardEncoding)
		return 0
	}
	d.off += n
	return v
}

func (d *shardDecoder) int() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zigzag, as binary.AppendVarint writes it
}

// intN reads an integer that must fit the platform int.
func (d *shardDecoder) intN() int {
	v := d.int()
	if int64(int(v)) != v {
		d.fail(errShardEncoding)
		return 0
	}
	return int(v)
}

func (d *shardDecoder) float() float64 {
	if s := d.take(8); s != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(s))
	}
	return 0
}

// count bounds a claimed number of elements, each at least elem bytes
// long, by the bytes left.
func (d *shardDecoder) count(n uint64, elem int) int {
	if d.err != nil {
		return 0
	}
	if n > uint64((d.end-d.off)/elem) {
		d.fail(errShardTruncated)
		return 0
	}
	return int(n)
}

func (d *shardDecoder) str() string { return string(d.take(d.count(d.uvarint(), 1))) }

// list reads a list prefix — 0 for nil, else length+1; ok is false for
// a nil list.
func (d *shardDecoder) list(elem int) (n int, ok bool) {
	p := d.uvarint()
	if p == 0 {
		return 0, false
	}
	n = d.count(p-1, elem)
	return n, d.err == nil
}

func (d *shardDecoder) floats() []float64 {
	n, ok := d.list(minFloat)
	if !ok {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float()
	}
	return out
}

func (d *shardDecoder) entry(en *sweep.Entry) {
	en.Index = d.intN()
	m := &en.Metrics
	m.Trace = d.str()
	m.Variant = d.str()
	m.Scheduler = d.str()
	m.Seed = d.int()
	m.Error = d.str()
	m.CoFlows = d.intN()
	m.Ports = d.intN()
	m.Intervals = d.intN()
	m.AvgCCT = d.float()
	m.P50CCT = d.float()
	m.P90CCT = d.float()
	m.Makespan = d.float()
	m.Utilization = d.float()

	en.CCTs = d.floats()
	if n, ok := d.list(minIDPair); ok {
		en.CCTByID = make(map[coflow.CoFlowID]coflow.Time, n)
		var prev coflow.CoFlowID
		for i := 0; i < n && d.err == nil; i++ {
			id := coflow.CoFlowID(d.int())
			if i > 0 && id <= prev {
				d.fail(errShardEncoding)
			}
			prev = id
			en.CCTByID[id] = coflow.Time(d.int())
		}
	}
	if n, ok := d.list(minRecord); ok {
		en.CoFlows = make([]sweep.CoFlowRecord, n)
		for i := range en.CoFlows {
			en.CoFlows[i] = sweep.CoFlowRecord{
				ID: coflow.CoFlowID(d.int()), Width: d.intN(), Bytes: coflow.Bytes(d.int()),
				SizeDev: d.float(), FCTDev: d.float(),
			}
		}
	}

	switch s := d.take(1); {
	case s == nil:
	case s[0] == 1:
		en.Telemetry = d.metrics()
	case s[0] != 0:
		d.fail(errShardEncoding)
	}
}

func (d *shardDecoder) metrics() *telemetry.Metrics {
	m := &telemetry.Metrics{Intervals: d.int(), Sampled: d.int()}
	if n, ok := d.list(minSeries); ok {
		m.Series = make([]telemetry.SeriesDump, n)
		for i := range m.Series {
			s := &m.Series[i]
			s.Name = d.str()
			s.Unit = d.str()
			s.Count = d.int()
			s.Mean = d.float()
			s.Max = d.float()
			s.Last = d.float()
			if n, ok := d.list(minPoint); ok {
				s.Points = make([]telemetry.Point, n)
				for j := range s.Points {
					s.Points[j] = telemetry.Point{T: d.float(), V: d.float()}
				}
			}
		}
	}
	if n, ok := d.list(minHist); ok {
		m.Histograms = make([]telemetry.HistogramDump, n)
		for i := range m.Histograms {
			h := &m.Histograms[i]
			h.Name = d.str()
			h.Count = d.int()
			h.Sum = d.float()
			h.Max = d.float()
			if n, ok := d.list(minBucket); ok {
				h.Buckets = make([]telemetry.Bucket, n)
				for j := range h.Buckets {
					h.Buckets[j] = telemetry.Bucket{LE: d.float(), Count: d.int()}
				}
			}
			h.Overflow = d.int()
		}
	}
	if n, ok := d.list(minHeatmap); ok {
		m.Heatmaps = make([]telemetry.HeatmapDump, n)
		for i := range m.Heatmaps {
			h := &m.Heatmaps[i]
			h.Name = d.str()
			h.Bounds = d.floats()
			h.Intervals = d.int()
			if n, ok := d.list(minHeatPort); ok {
				h.Ports = make([]telemetry.HeatmapPortDump, n)
				for j := range h.Ports {
					p := &h.Ports[j]
					p.Port = d.intN()
					if n, ok := d.list(minVarint); ok {
						p.Counts = make([]int64, n)
						for k := range p.Counts {
							p.Counts[k] = d.int()
						}
					}
					p.Overflow = d.int()
					p.Sum = d.int()
					p.Max = d.int()
				}
			}
		}
	}
	return m
}

// ReadShard parses and shape-checks one shard dump. Failures are
// classified — an empty file, a dump from before the binary format, a
// truncated dump (the footprint of a worker killed mid-write, located
// by byte and entry), a checksum mismatch and an invalid encoding each
// get a distinct cause — and a dump that decodes but is structurally
// impossible (negative shard index, non-hex fingerprint, entries
// outside its own stripe) is rejected here rather than surfacing later
// as a confusing merge error. MergeShardDir wraps every error with the
// dump's path.
func ReadShard(rd io.Reader) (*ShardDump, error) {
	b, err := readAll(rd)
	if err != nil {
		return nil, fmt.Errorf("study: bad shard dump: %w", err)
	}
	dump, err := decodeShard(b)
	if err != nil {
		return nil, fmt.Errorf("study: bad shard dump: %w", err)
	}
	if err := dump.shape(); err != nil {
		return nil, fmt.Errorf("study: bad shard dump: %w", err)
	}
	return dump, nil
}

// readAll reads rd to EOF into one buffer sized the way os.ReadFile
// sizes its own: the length rd has left, when it can tell it (Len for
// a bytes.Buffer or bytes.Reader, Stat for a file), plus one byte to
// meet EOF. A reader that cannot tell, or tells short, still gets read
// whole; only its buffer grows the way io.ReadAll's does.
func readAll(rd io.Reader) ([]byte, error) {
	size := 0
	switch r := rd.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() {
			size = int(fi.Size())
		}
	}
	b := make([]byte, 0, max(size+1, 512))
	for {
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

func decodeShard(b []byte) (*ShardDump, error) {
	switch {
	case len(b) == 0:
		return nil, errors.New("empty file (shard run produced no output?)")
	case b[0] == '{':
		return nil, errors.New("old-format JSON dump, re-run the shard (dumps are now a binary format)")
	case string(b[:min(len(b), len(shardMagic))]) != shardMagic[:min(len(b), len(shardMagic))]:
		return nil, errors.New("not a shard dump (bad magic)")
	}
	// where names the position of a failure for the operator.
	where := "the header"
	d := &shardDecoder{b: b, end: len(b)}
	broken := func() error {
		if errors.Is(d.err, errShardTruncated) {
			return fmt.Errorf("truncated at byte %d in %s (interrupted or partial shard write?)", len(b), where)
		}
		return fmt.Errorf("%w at byte %d in %s", d.err, d.off, where)
	}
	d.take(len(shardMagic))
	if v := d.take(1); v != nil && v[0] != shardVersion {
		return nil, fmt.Errorf("shard format version %d, this build reads version %d; re-run the shard", v[0], shardVersion)
	}
	dump := &ShardDump{Study: d.str(), Shard: d.intN(), Of: d.intN(), Jobs: d.intN(), KeysHash: d.str()}
	for d.err == nil {
		where = fmt.Sprintf("entry %d", len(dump.Entries))
		var size uint32
		if s := d.take(4); s != nil {
			size = binary.LittleEndian.Uint32(s)
		}
		if size == 0 {
			break
		}
		rec := d.take(int(size))
		if rec == nil {
			break
		}
		// Decode within the record's bounds: a corrupt inner length can
		// neither read into the next record nor leave bytes unread.
		dump.Entries = append(dump.Entries, sweep.Entry{})
		d.off, d.end = d.off-len(rec), d.off
		d.entry(&dump.Entries[len(dump.Entries)-1])
		if d.err == nil && d.off != d.end {
			d.fail(errShardEncoding)
		}
		if errors.Is(d.err, errShardTruncated) {
			// The record is all there; its contents overran it.
			d.err = errShardEncoding
		}
		d.end = len(b)
	}
	if d.err != nil {
		return nil, broken()
	}
	where = "the trailer"
	count := d.uvarint()
	sum := d.take(4)
	if d.err != nil {
		return nil, broken()
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%d trailing bytes after the checksum", len(b)-d.off)
	}
	if want, got := binary.LittleEndian.Uint32(sum), crc32.Checksum(b[:len(b)-4], crc32c); want != got {
		return nil, fmt.Errorf("checksum mismatch (corrupt dump): stored %08x, computed %08x", want, got)
	}
	if count != uint64(len(dump.Entries)) {
		return nil, fmt.Errorf("trailer counts %d entries, dump holds %d", count, len(dump.Entries))
	}
	return dump, nil
}
