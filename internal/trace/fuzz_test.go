package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParse: any input to the coflow-benchmark reader is rejected with
// an error or parses to a trace that Write and Parse round-trip. Write
// normalises — the mapper set becomes the distinct senders, each
// reducer's size the bytes its flows carry — so the first rewrite may
// differ from the input; what Write writes, Parse must accept with the
// same ports, CoFlow IDs and arrivals, and from there on the trace is a
// fixed point: Parse(Write(t)) is t, and Write writes it again byte for
// byte. Nothing may panic. Inputs above 2 KB are skipped: a record's
// flows are its mappers times its reducers, so a few kilobytes already
// describe a quarter of a million flows. The committed corpus under
// testdata/fuzz holds a valid trace, the normalising cases and one
// input per way of being refused.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleTrace))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 2<<10 {
			t.Skip()
		}
		t1, err := Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		write := func(tr *Trace) []byte {
			var buf bytes.Buffer
			if err := Write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		reparse := func(b []byte) *Trace {
			tr, err := Parse(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("Parse rejects what Write wrote: %v\n%s", err, b)
			}
			return tr
		}
		b1 := write(t1)
		t2 := reparse(b1)
		if t2.NumPorts != t1.NumPorts || len(t2.Specs) != len(t1.Specs) {
			t.Fatalf("rewrite has %d ports and %d coflows, the input %d and %d", t2.NumPorts, len(t2.Specs), t1.NumPorts, len(t1.Specs))
		}
		for i, s := range t1.Specs {
			if r := t2.Specs[i]; r.ID != s.ID || r.Arrival != s.Arrival {
				t.Fatalf("coflow %d: rewrite has id %d at %v, the input id %d at %v", i, r.ID, r.Arrival, s.ID, s.Arrival)
			}
		}
		b2 := write(t2)
		if t3 := reparse(b2); !reflect.DeepEqual(t3, t2) {
			t.Fatalf("Parse(Write(t)) != t for t written as\n%s", b2)
		} else if b3 := write(t3); !bytes.Equal(b3, b2) {
			t.Fatalf("a second rewrite differs:\n%s\nthen\n%s", b2, b3)
		}
	})
}
