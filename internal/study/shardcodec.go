package study

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"reflect"
	"slices"

	"saath/internal/sweep"
)

// The shard dump is an internal, versioned binary format — the one
// serialisation of a ShardDump, the bytes of a shard file:
//
//	magic "saathshd" | version byte
//	header: study, shard, of, jobs, keys_hash
//	per entry: uint32 record length (> 0) | record
//	uint32 0 | entry count | CRC-32C of every preceding byte
//
// A record is one sweep.Entry: the carried structs themselves — Entry,
// JobMetrics, each CoFlowRecord, the telemetry dumps — walked field by
// field in declaration order under one fixed rule per kind:
//
//	int, int64  zigzag varint; an int must fit the platform int
//	float64     8 raw little-endian IEEE-754 bytes, so -0 and NaN payloads survive
//	string      uvarint length | bytes
//	slice       list prefix, 0 for nil else length+1 | elements
//	pointer     presence byte, 0 or 1 | pointee
//	map         list prefix | (key, value) varints in ascending key order
//
// The header follows the same rules. Exports render nil and empty
// slices differently (null vs []), so the list prefix keeps them apart
// through a merge; sorted map keys make the bytes a pure function of
// the dump. The reader accepts exactly what the writer produces: any
// other encoding of the same value (an over-long varint, keys out of
// order) is rejected. No field is listed by hand, so any change to a
// carried struct changes the format and bumps shardVersion; the
// layout test (TestShardLayoutPinned) records each version's fields
// and fails until it is bumped. Version 2 added the per-coflow column.
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
		e.value(reflect.ValueOf(&d.Entries[i]).Elem())
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
	w     io.Writer
	b     []byte
	crc   uint32     // of everything flushed so far
	pairs [][2]int64 // a map's entries, sorted by key
	err   error
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

// value appends v under its kind's rule.
func (e *shardEncoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		e.int(v.Int())
	case reflect.Float64:
		e.float(v.Float())
	case reflect.String:
		e.str(v.String())
	case reflect.Struct:
		for i := range v.NumField() {
			e.value(v.Field(i))
		}
	case reflect.Slice:
		e.list(v.Len(), v.IsNil())
		for i := range v.Len() {
			e.value(v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			e.b = append(e.b, 0)
			return
		}
		e.b = append(e.b, 1)
		e.value(v.Elem())
	case reflect.Map:
		e.list(v.Len(), v.IsNil())
		k, x := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		e.pairs = e.pairs[:0]
		for it := v.MapRange(); it.Next(); {
			k.SetIterKey(it)
			x.SetIterValue(it)
			e.pairs = append(e.pairs, [2]int64{k.Int(), x.Int()})
		}
		slices.SortFunc(e.pairs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		for _, p := range e.pairs {
			e.int(p[0])
			e.int(p[1])
		}
	}
}

// shardSizes holds, for every type the walk meets under sweep.Entry,
// the encoded size of its zero value: the fewest bytes one element of
// a list of it takes. A list prefix claiming more elements than the
// bytes left could hold is rejected before anything is allocated for
// it, which bounds the reader's memory by its input. Filling the table
// at start-up holds every carried type to the rules, so a field no
// rule covers fails here, not mid-dump. It is read-only afterwards.
var shardSizes = map[reflect.Type]int{}

func init() { shardSize(reflect.TypeFor[sweep.Entry]()) }

func shardSize(t reflect.Type) int {
	if n, ok := shardSizes[t]; ok {
		return n
	}
	n := 1 // a zero varint, an empty string, a nil list or map, an absent pointee
	switch t.Kind() {
	case reflect.Int, reflect.Int64, reflect.String:
	case reflect.Float64:
		n = 8
	case reflect.Slice, reflect.Pointer:
		shardSize(t.Elem())
	case reflect.Map: // integer keys and values: the pairs are sorted by key
		for _, kv := range []reflect.Type{t.Key(), t.Elem()} {
			if kv.Kind() != reflect.Int && kv.Kind() != reflect.Int64 {
				panic(fmt.Sprintf("study: shard format: no rule for %s", t))
			}
			shardSize(kv)
		}
	case reflect.Struct:
		n = 0
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("study: shard format: %s.%s is unexported", t, f.Name))
			}
			n += shardSize(f.Type)
		}
	default:
		panic(fmt.Sprintf("study: shard format: no rule for %s", t))
	}
	shardSizes[t] = n
	return n
}

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

// value reads v, which must be settable, under its kind's rule. After
// a failure it reads zero values, as every read does.
func (d *shardDecoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int:
		v.SetInt(int64(d.intN()))
	case reflect.Int64:
		v.SetInt(d.int())
	case reflect.Float64:
		v.SetFloat(d.float())
	case reflect.String:
		v.SetString(d.str())
	case reflect.Struct:
		for i := range v.NumField() {
			d.value(v.Field(i))
		}
	case reflect.Slice:
		n, ok := d.list(shardSizes[v.Type().Elem()])
		if !ok {
			return
		}
		if n == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			return
		}
		v.Grow(n)
		v.SetLen(n)
		for i := range n {
			d.value(v.Index(i))
		}
	case reflect.Pointer:
		switch s := d.take(1); {
		case s == nil:
		case s[0] == 1:
			v.Set(reflect.New(v.Type().Elem()))
			d.value(v.Elem())
		case s[0] != 0:
			d.fail(errShardEncoding)
		}
	case reflect.Map:
		t := v.Type()
		n, ok := d.list(shardSizes[t.Key()] + shardSizes[t.Elem()])
		if !ok {
			return
		}
		v.Set(reflect.MakeMapWithSize(t, n))
		k, x := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		var prev int64
		for i := 0; i < n && d.err == nil; i++ {
			d.value(k)
			if i > 0 && k.Int() <= prev {
				d.fail(errShardEncoding)
			}
			prev = k.Int()
			d.value(x)
			v.SetMapIndex(k, x)
		}
	}
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
		d.value(reflect.ValueOf(&dump.Entries[len(dump.Entries)-1]).Elem())
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
