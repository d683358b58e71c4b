package fabric

import "saath/internal/coflow"

// Demand is one flow competing for bandwidth in a max-min allocation.
type Demand struct {
	Src coflow.PortID
	Dst coflow.PortID
	// Cap optionally bounds the rate this flow can absorb (e.g. a
	// straggler's effective ceiling). Zero or negative means uncapped.
	Cap coflow.Rate
}

// maxMinScratch is MaxMinFairInto's working state, kept on the Fabric
// and reused across calls so progressive filling stays off the heap.
type maxMinScratch struct {
	side   [2]mmSide // egress, ingress
	active []bool    // by demand: not frozen yet
	capped []int32   // the active demands with a cap
}

// mmSide is the filling state of one direction of every port. Only
// ports some demand of the call uses are read or written, and every
// count is zero between calls.
type mmSide struct {
	residual   []coflow.Rate // by port: capacity left, read at first use
	count      []int32       // by port: active demands through it
	first, end []int32       // by port: its demands' span of members
	members    []int32       // demand indices grouped by port, ascending within a port
	ports      []int32       // ports with active demands
}

// size readies the side for a call on numPorts ports with demands
// demands.
func (s *mmSide) size(numPorts, demands int) {
	if len(s.count) < numPorts {
		s.residual = make([]coflow.Rate, numPorts) // sized once per fabric
		s.count = make([]int32, numPorts)          // sized once per fabric
		s.first = make([]int32, numPorts)          // sized once per fabric
		s.end = make([]int32, numPorts)            // sized once per fabric
	}
	if cap(s.members) < demands {
		s.members = make([]int32, demands) // grows to the largest call, then reused
	}
	s.members = s.members[:demands]
	s.ports = s.ports[:0]
}

// use counts one demand through port p, whose capacity left is free[p].
func (s *mmSide) use(p coflow.PortID, free []coflow.Rate) {
	if s.count[p] == 0 {
		s.ports = append(s.ports, int32(p))
		s.residual[p] = free[p]
	}
	s.count[p]++
}

// group lays out members port by port: port p's demands, ascending,
// at members[first[p]:end[p]]; ingress says the side is the demands'
// Dst, not their Src.
func (s *mmSide) group(demands []Demand, ingress bool) {
	var n int32
	for _, p := range s.ports {
		n += s.count[p]
		s.first[p], s.end[p] = n, n
	}
	for i := len(demands) - 1; i >= 0; i-- {
		p := demands[i].Src
		if ingress {
			p = demands[i].Dst
		}
		s.first[p]--
		s.members[s.first[p]] = int32(i)
	}
}

// compact drops the ports no active demand uses any more.
func (s *mmSide) compact() {
	n := 0
	for _, p := range s.ports {
		if s.count[p] > 0 {
			s.ports[n] = p
			n++
		}
	}
	s.ports = s.ports[:n]
}

// MaxMinFairInto computes the max-min fair rate for each demand using
// progressive filling over the fabric's *residual* capacities: in each
// round the most contended port saturates first, its flows are frozen
// at the fair share, and filling continues on the rest. The result is
// appended to dst (pass dst[:0] to reuse its backing array); internal
// working state lives on the Fabric and is reused across rounds, so a
// steady-state call allocates nothing.
//
// Every active demand gains the same level each round, so one running
// sum of the levels is every active demand's rate, and a demand's rate
// is that sum as it stood when the demand froze. A port's residual
// still takes the level once per active demand through it — x−l−l is
// not x−2l in floating point — but as a count, not a walk over the
// demands. A port that saturates freezes the demands listed under it,
// and only ports some active demand uses are scanned, so a round costs
// its active demands' subtractions plus the ports and capped demands
// still in play, and the rates are those of a round-by-round walk over
// every demand bit for bit (FuzzMaxMinFair holds the two together).
//
// This is the bandwidth allocation a fabric of ideal TCP flows
// converges to, and implements the UC-TCP baseline (§6.1) as well as
// fair work-conservation variants. The fabric is left unchanged;
// callers apply the returned rates with Allocate if desired.
//
//saath:hotpath
func (f *Fabric) MaxMinFairInto(dst []coflow.Rate, demands []Demand) []coflow.Rate {
	rates := coflow.Grow(dst, len(demands))[:len(demands)] // every demand's rate is set when it freezes
	if len(demands) == 0 {
		return rates
	}

	m := &f.mm
	eg, in := &m.side[0], &m.side[1]
	eg.size(f.numPorts, len(demands))
	in.size(f.numPorts, len(demands))
	if cap(m.active) < len(demands) {
		m.active = make([]bool, len(demands)) // grows to the largest call, then reused
	}
	active := m.active[:len(demands)]
	m.capped = m.capped[:0]
	for i, d := range demands {
		active[i] = true
		eg.use(d.Src, f.egressFree)
		in.use(d.Dst, f.ingressFree)
		if d.Cap > 0 {
			m.capped = append(m.capped, int32(i))
		}
	}
	eg.group(demands, false)
	in.group(demands, true)

	const eps = 1e-6
	var sum coflow.Rate // every active demand's rate
	remaining := len(demands)
	freeze := func(i int32) {
		active[i] = false
		rates[i] = sum
		eg.count[demands[i].Src]--
		in.count[demands[i].Dst]--
		remaining--
	}
	for remaining > 0 {
		// The tightest bottleneck: min over ports in use of residual /
		// active count, and over capped demands of their cap's headroom.
		level := coflow.Rate(-1)
		lower := func(candidate coflow.Rate) {
			if candidate < 0 {
				candidate = 0
			}
			if level < 0 || candidate < level {
				level = candidate
			}
		}
		for k := range m.side {
			s := &m.side[k]
			for _, p := range s.ports {
				lower(s.residual[p] / coflow.Rate(s.count[p]))
			}
		}
		for _, i := range m.capped {
			lower(demands[i].Cap - sum)
		}
		if level < 0 {
			break // no contended ports left (defensive; remaining>0 implies some)
		}

		// Raise every active demand by the level, then freeze those at
		// saturated ports or at their cap.
		sum += level
		for k := range m.side {
			s := &m.side[k]
			for _, p := range s.ports {
				r := s.residual[p]
				for j := s.count[p]; j > 0; j-- { // once per demand: x−l−l is not x−2l
					r -= level
				}
				s.residual[p] = r
			}
		}
		for k := range m.side {
			s := &m.side[k]
			for _, p := range s.ports {
				if s.count[p] == 0 || float64(s.residual[p]) > eps {
					continue
				}
				for _, i := range s.members[s.first[p]:s.end[p]] {
					if active[i] {
						freeze(i)
					}
				}
			}
		}
		n := 0
		for _, i := range m.capped {
			if !active[i] {
				continue
			}
			if sum >= demands[i].Cap-coflow.Rate(eps) {
				freeze(i)
				continue
			}
			m.capped[n] = i
			n++
		}
		m.capped = m.capped[:n]
		eg.compact()
		in.compact()
	}
	for i := int32(0); remaining > 0; i++ { // after the defensive break only
		if active[i] {
			freeze(i)
		}
	}
	return rates
}
