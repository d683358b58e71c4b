// Package trace loads, writes, synthesizes and summarizes CoFlow
// workloads.
//
// The on-disk format is the public coflow-benchmark format used by the
// Facebook trace the paper replays (github.com/coflow/coflow-benchmark):
//
//	<numPorts> <numCoFlows>
//	<id> <arrivalMillis> <numMappers> <m...> <numReducers> <r:sizeMB ...>
//
// Each reducer's size is split equally across the mappers, one flow per
// (mapper, reducer) pair, exactly as in the reference replayer.
//
// Because this build environment is offline, the package also ships
// seeded synthetic generators whose marginals match the published
// statistics of the Facebook trace and of the proprietary OSP trace
// (see DESIGN.md for the substitution argument).
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"saath/internal/coflow"
)

// Trace is a CoFlow workload over a cluster of NumPorts nodes.
type Trace struct {
	Name     string
	NumPorts int
	Specs    []*coflow.Spec
}

// Validate checks the trace's structural invariants: a port count that
// coflow.PortID can number, ports in range, valid specs, unique IDs.
// Spec and port errors are reported before a duplicate ID.
func (t *Trace) Validate() error {
	if t.NumPorts <= 0 {
		return fmt.Errorf("trace %q: non-positive port count %d", t.Name, t.NumPorts)
	}
	if t.NumPorts > math.MaxInt32 {
		return fmt.Errorf("trace %q: port count %d beyond %d", t.Name, t.NumPorts, math.MaxInt32)
	}
	ids := make([]coflow.CoFlowID, len(t.Specs))
	for j, s := range t.Specs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("trace %q: %w", t.Name, err)
		}
		for i, f := range s.Flows {
			if int(f.Src) >= t.NumPorts || int(f.Dst) >= t.NumPorts {
				return fmt.Errorf("trace %q coflow %d flow %d: port out of range (src=%d dst=%d, ports=%d)",
					t.Name, s.ID, i, f.Src, f.Dst, t.NumPorts)
			}
		}
		ids[j] = s.ID
	}
	// Duplicates sit side by side in one sorted copy of the IDs.
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("trace %q: duplicate coflow id %d", t.Name, ids[i])
		}
	}
	return nil
}

// SortByArrival orders specs by arrival time (stable; ties by ID).
func (t *Trace) SortByArrival() {
	sort.SliceStable(t.Specs, func(i, j int) bool {
		a, b := t.Specs[i], t.Specs[j]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
}

// ScaleArrivals multiplies every arrival time by factor. The paper's
// Fig. 14(d) sensitivity knob A speeds arrivals up by dividing times,
// i.e. A=4 means ScaleArrivals(1/4).
func (t *Trace) ScaleArrivals(factor float64) {
	for _, s := range t.Specs {
		s.Arrival = coflow.Time(float64(s.Arrival) * factor)
	}
}

// Clone deep-copies the trace so that callers may mutate arrivals or
// sizes without affecting the original. The specs are carved from one
// slab and their flow lists from another (DependsOn lists from a third,
// made only when some spec has one); each list's capacity is clipped to
// its length, so an append to one clone's list reallocates instead of
// writing into its neighbour's. An empty list clones to nil.
func (t *Trace) Clone() *Trace {
	flows, deps := 0, 0
	for _, s := range t.Specs {
		flows += len(s.Flows)
		deps += len(s.DependsOn)
	}
	out := &Trace{Name: t.Name, NumPorts: t.NumPorts, Specs: make([]*coflow.Spec, len(t.Specs))}
	specs := make([]coflow.Spec, len(t.Specs))
	flowSlab := make([]coflow.FlowSpec, 0, flows)
	depSlab := make([]coflow.CoFlowID, 0, deps) // no allocation when deps == 0
	for i, s := range t.Specs {
		cp := &specs[i]
		*cp = *s
		cp.Flows, flowSlab = carve(flowSlab, s.Flows)
		cp.DependsOn, depSlab = carve(depSlab, s.DependsOn)
		out.Specs[i] = cp
	}
	return out
}

// carve copies src to the end of slab, which has room for it, and
// returns the copy with its capacity clipped (nil when src is empty)
// and the grown slab.
func carve[T any](slab, src []T) ([]T, []T) {
	if len(src) == 0 {
		return nil, slab
	}
	n := len(slab)
	slab = append(slab, src...)
	return slab[n:len(slab):len(slab)], slab
}

// TotalBytes sums every flow of every CoFlow.
func (t *Trace) TotalBytes() coflow.Bytes {
	var total coflow.Bytes
	for _, s := range t.Specs {
		total += s.TotalSize()
	}
	return total
}

// Parse reads a trace in coflow-benchmark format. Ports are 32-bit
// (coflow.PortID): a port number or port count above math.MaxInt32 is
// an error, never wrapped onto a port in range.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24) // wide coflows produce long lines
	line := 0
	next := func() ([]string, error) {
		for sc.Scan() {
			line++
			fields := strings.Fields(sc.Text())
			if len(fields) == 0 {
				continue
			}
			return fields, nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) != 2 {
		return nil, fmt.Errorf("trace line %d: header needs <ports> <coflows>, got %q", line, strings.Join(header, " "))
	}
	numPorts, err := strconv.Atoi(header[0])
	if err != nil {
		return nil, fmt.Errorf("trace line %d: bad port count: %w", line, err)
	}
	numCoflows, err := strconv.Atoi(header[1])
	if err != nil {
		return nil, fmt.Errorf("trace line %d: bad coflow count: %w", line, err)
	}
	if numCoflows < 0 {
		return nil, fmt.Errorf("trace line %d: negative coflow count %d", line, numCoflows)
	}

	// The count is the header's claim, not a size: the records prove it.
	t := &Trace{NumPorts: numPorts, Specs: make([]*coflow.Spec, 0, min(numCoflows, 1<<12))}
	for i := 0; i < numCoflows; i++ {
		fields, err := next()
		if err != nil {
			return nil, fmt.Errorf("trace: coflow %d of %d: %w", i+1, numCoflows, err)
		}
		spec, err := parseCoflowLine(fields, line)
		if err != nil {
			return nil, err
		}
		t.Specs = append(t.Specs, spec)
	}
	t.SortByArrival()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseCoflowLine(fields []string, line int) (*coflow.Spec, error) {
	bad := func(msg string, args ...any) error {
		return fmt.Errorf("trace line %d: %s", line, fmt.Sprintf(msg, args...))
	}
	if len(fields) < 4 {
		return nil, bad("truncated coflow record")
	}
	id, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return nil, bad("bad coflow id %q: %v", fields[0], err)
	}
	arrivalMS, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || arrivalMS > math.MaxInt64/int64(coflow.Millisecond) {
		return nil, bad("bad arrival %q", fields[1])
	}
	numMappers, err := strconv.Atoi(fields[2])
	if err != nil || numMappers <= 0 {
		return nil, bad("bad mapper count %q", fields[2])
	}
	pos := 3
	if numMappers > len(fields)-pos-1 {
		return nil, bad("record too short for %d mappers", numMappers)
	}
	mappers := make([]coflow.PortID, numMappers)
	for i := range mappers {
		p, err := parsePort(fields[pos+i])
		if err != nil {
			return nil, bad("bad mapper port %q: %v", fields[pos+i], err)
		}
		mappers[i] = p
	}
	pos += numMappers
	numReducers, err := strconv.Atoi(fields[pos])
	if err != nil || numReducers <= 0 {
		return nil, bad("bad reducer count %q", fields[pos])
	}
	pos++
	if numReducers != len(fields)-pos {
		return nil, bad("expected %d reducer entries, got %d", numReducers, len(fields)-pos)
	}

	spec := &coflow.Spec{
		ID:      coflow.CoFlowID(id),
		Arrival: coflow.Time(arrivalMS) * coflow.Millisecond,
	}
	var total float64 // bytes the record carries so far
	for i := 0; i < numReducers; i++ {
		entry := fields[pos+i]
		colon := strings.IndexByte(entry, ':')
		if colon < 0 {
			return nil, bad("reducer entry %q missing ':'", entry)
		}
		rp, err := parsePort(entry[:colon])
		if err != nil {
			return nil, bad("bad reducer port in %q: %v", entry, err)
		}
		sizeMB, err := strconv.ParseFloat(entry[colon+1:], 64)
		if err != nil || !(sizeMB >= 0) {
			return nil, bad("bad reducer size in %q", entry)
		}
		// A CoFlow carries under 2^53 bytes, where a float64 holds every
		// byte count exactly, so Write and Parse carry sizes unrounded.
		if total += sizeMB * float64(coflow.MB); total >= 1<<53 {
			return nil, bad("coflow %d carries 2^53 bytes or more", id)
		}
		perFlow := coflow.Bytes(sizeMB * float64(coflow.MB) / float64(numMappers))
		if perFlow <= 0 {
			perFlow = 1 // the replayer still opens the flow; keep it observable
		}
		for _, mp := range mappers {
			spec.Flows = append(spec.Flows, coflow.FlowSpec{Src: mp, Dst: rp, Size: perFlow})
		}
	}
	return spec, nil
}

// parsePort reads a port number that fits coflow.PortID.
func parsePort(s string) (coflow.PortID, error) {
	p, err := strconv.ParseInt(s, 10, 32)
	return coflow.PortID(p), err
}

// ParseFile reads a trace file in coflow-benchmark format.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t.Name = path
	return t, nil
}

// Write serializes the trace in coflow-benchmark format. Flows are
// grouped back into mapper/reducer structure: the mapper set is the
// distinct sources and each reducer's size is the sum of its incoming
// flows. Traces not generated from an m×r grid still round-trip their
// per-port totals.
//
// A CoFlow's flows are copied into one scratch list reused across the
// trace and sorted by sender, then by receiver: the runs are the distinct
// senders and each receiver's flows. A table indexed by port would cost
// memory in the largest port number, up to 2^31 entries in a valid
// trace, where the list costs the widest CoFlow.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	line := strconv.AppendInt(nil, int64(t.NumPorts), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(len(t.Specs)), 10)
	line = append(line, '\n')
	bw.Write(line)
	var fs []coflow.FlowSpec
	for _, s := range t.Specs {
		fs = append(fs[:0], s.Flows...)
		slices.SortFunc(fs, func(a, b coflow.FlowSpec) int { return cmp.Compare(a.Src, b.Src) })
		line = strconv.AppendInt(line[:0], int64(s.ID), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(s.Arrival/coflow.Millisecond), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(runs(fs, func(f coflow.FlowSpec) coflow.PortID { return f.Src })), 10)
		for i, f := range fs {
			if i == 0 || f.Src != fs[i-1].Src {
				line = append(line, ' ')
				line = strconv.AppendInt(line, int64(f.Src), 10)
			}
		}
		slices.SortFunc(fs, func(a, b coflow.FlowSpec) int { return cmp.Compare(a.Dst, b.Dst) })
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(runs(fs, func(f coflow.FlowSpec) coflow.PortID { return f.Dst })), 10)
		for i := 0; i < len(fs); {
			p, sum := fs[i].Dst, coflow.Bytes(0)
			for ; i < len(fs) && fs[i].Dst == p; i++ {
				sum += fs[i].Size
			}
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(p), 10)
			line = append(line, ':')
			line = strconv.AppendFloat(line, float64(sum)/float64(coflow.MB), 'g', -1, 64)
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// runs counts the runs of equal ports in fs, which is sorted by port.
func runs(fs []coflow.FlowSpec, port func(coflow.FlowSpec) coflow.PortID) int {
	n := 0
	for i := range fs {
		if i == 0 || port(fs[i]) != port(fs[i-1]) {
			n++
		}
	}
	return n
}
