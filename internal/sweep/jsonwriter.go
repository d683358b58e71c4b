package sweep

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
)

// jsonWriter emits two-space-indented JSON straight into an io.Writer,
// byte for byte what encoding/json's Encoder with SetIndent("", "  ")
// produces for the same document — the export goldens pin those bytes —
// without reflection, an intermediate compact buffer or a second
// indenting pass. Callers drive it in document order; it tracks only
// the nesting depth and whether the next token opens a container's
// first element. Errors are sticky: after the first one every call is
// a no-op and flush reports it.
type jsonWriter struct {
	out   io.Writer
	buf   []byte
	depth int
	// fresh: the last token opened a container, so the next element needs
	// no comma and an immediate close renders "{}" / "[]".
	fresh bool
	// keyed: the last token was an object key; the value follows inline.
	keyed bool
	// dry validates values without producing output (see encodeIndented).
	dry bool
	err error
}

const (
	jsonFlushAt = 32 << 10
	jsonSpaces  = "\n                                "
)

// encodeIndented runs emit twice: a dry pass that only validates, so an
// unsupported value fails before the first byte is written (as
// Encoder.Encode does), then the writing pass.
func encodeIndented(out io.Writer, emit func(*jsonWriter)) error {
	check := &jsonWriter{dry: true}
	emit(check)
	if check.err != nil {
		return check.err
	}
	w := &jsonWriter{out: out, buf: make([]byte, 0, jsonFlushAt+(4<<10))}
	emit(w)
	w.buf = append(w.buf, '\n')
	return w.flush()
}

func (w *jsonWriter) flush() error {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.out.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// newline starts a line at the given depth.
func (w *jsonWriter) newline(depth int) {
	if len(w.buf) >= jsonFlushAt {
		w.flush()
	}
	w.buf = append(w.buf, jsonSpaces[:1+2*depth]...)
}

// element positions the writer for the next key or array element.
func (w *jsonWriter) element() {
	if w.keyed {
		w.keyed = false
		return
	}
	if w.depth == 0 {
		return // the document's root value
	}
	if !w.fresh {
		w.buf = append(w.buf, ',')
	}
	w.fresh = false
	w.newline(w.depth)
}

func (w *jsonWriter) open(c byte) {
	if w.dry || w.err != nil {
		return
	}
	w.element()
	w.buf = append(w.buf, c)
	w.depth++
	w.fresh = true
}

func (w *jsonWriter) close(c byte) {
	if w.dry || w.err != nil {
		return
	}
	w.depth--
	if !w.fresh {
		w.newline(w.depth)
	}
	w.fresh = false
	w.buf = append(w.buf, c)
}

func (w *jsonWriter) beginObject() { w.open('{') }
func (w *jsonWriter) endObject()   { w.close('}') }
func (w *jsonWriter) beginArray()  { w.open('[') }
func (w *jsonWriter) endArray()    { w.close(']') }

// key writes an object key. Keys are the exporters' own field names:
// plain ASCII needing no escaping.
func (w *jsonWriter) key(name string) {
	if w.dry || w.err != nil {
		return
	}
	w.element()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, `": `...)
	w.keyed = true
}

func (w *jsonWriter) null() {
	if w.dry || w.err != nil {
		return
	}
	w.element()
	w.buf = append(w.buf, "null"...)
}

func (w *jsonWriter) int(v int64) {
	if w.dry || w.err != nil {
		return
	}
	w.element()
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// float formats like encoding/json: shortest round-trip digits, 'e'
// form outside [1e-6, 1e21) with the exponent's leading zero dropped,
// and the same UnsupportedValueError for NaN and ±Inf.
func (w *jsonWriter) float(f float64) {
	if w.err != nil {
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		return
	}
	if w.dry {
		return
	}
	w.element()
	// An integral value below 1e15 prints as its integer digits in 'f'
	// form; AppendInt writes those without the shortest-digits search.
	// −0 is not one: encoding/json writes it "-0".
	if i := int64(f); float64(i) == f && i > -1e15 && i < 1e15 && (i != 0 || !math.Signbit(f)) {
		w.buf = strconv.AppendInt(w.buf, i, 10)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9, as encoding/json cleans it up.
		if n := len(w.buf); n >= 4 && w.buf[n-4] == 'e' && (w.buf[n-3] == '-' || w.buf[n-3] == '+') && w.buf[n-2] == '0' {
			w.buf[n-2] = w.buf[n-1]
			w.buf = w.buf[:n-1]
		}
	}
}

// str defers to json.Marshal so HTML and invalid-UTF-8 escaping cannot
// drift from the encoder's.
func (w *jsonWriter) str(s string) {
	if w.dry || w.err != nil {
		return
	}
	b, err := json.Marshal(s)
	if err != nil {
		w.err = err
		return
	}
	w.element()
	w.buf = append(w.buf, b...)
}

func (w *jsonWriter) strField(k, v string)           { w.key(k); w.str(v) }
func (w *jsonWriter) intField(k string, v int64)     { w.key(k); w.int(v) }
func (w *jsonWriter) floatField(k string, v float64) { w.key(k); w.float(v) }

// identity emits the grid coordinates every per-job export object
// starts with.
func (w *jsonWriter) identity(trace, variant, scheduler string, seed int64) {
	w.strField("trace", trace)
	if variant != "" {
		w.strField("variant", variant)
	}
	w.strField("scheduler", scheduler)
	w.intField("seed", seed)
}

// writeArray emits items through each; a nil slice is null, as
// encoding/json renders it.
func writeArray[T any](w *jsonWriter, items []T, each func(*T)) {
	if items == nil {
		w.null()
		return
	}
	w.beginArray()
	for i := range items {
		each(&items[i])
	}
	w.endArray()
}
