package main

import (
	"encoding/json"
	"hash"
	"hash/fnv"
	"io"
)

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// hashingWriter counts and FNV-64a-hashes what it is given, so an
// export can be compared byte for byte without being kept.
type hashingWriter struct {
	countingWriter
	h hash.Hash64
}

func newHashingWriter() *hashingWriter { return &hashingWriter{h: fnv.New64a()} }

func (w *hashingWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	return w.countingWriter.Write(p)
}

func (w *hashingWriter) Sum64() uint64 { return w.h.Sum64() }

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
