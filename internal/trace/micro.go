package trace

import "saath/internal/coflow"

// Micro traces reproduce the hand-built examples from the paper's
// figures. Durations in the figures are in abstract units of t; we map
// one unit to the bytes a 1 Gbps port moves in MicroUnit.
const MicroUnit = 100 * coflow.Millisecond

// MicroUnitBytes is the bytes one port sends in one MicroUnit at 1 Gbps.
var MicroUnitBytes = coflow.GbpsRate(1).Transfer(MicroUnit)

func microFlow(src, dst coflow.PortID, units int) coflow.FlowSpec {
	return coflow.FlowSpec{Src: src, Dst: dst, Size: coflow.Bytes(units) * MicroUnitBytes}
}

// Fig1Trace reproduces the out-of-sync example of Fig. 1: four CoFlows
// over three sender ports, arrivals C1 < C2 < C3 < C4, all flows one
// unit long. Ports (senders): P1, P2, P3 are nodes 0..2; receivers are
// distinct nodes 3.. so only sender ports contend, as the figure draws.
//
//	P1: C1, C2        P2: C2, C3        P3: C2, C4
//
// Under per-port FIFO (Aalo), C2's flows land at different times and it
// drags across the timeline; the optimal schedule packs C1,C3,C4 first.
func Fig1Trace() *Trace {
	eps := coflow.Millisecond // strictly increasing arrivals
	specs := []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{microFlow(0, 3, 1)}},
		{ID: 2, Arrival: 1 * eps, Flows: []coflow.FlowSpec{
			microFlow(0, 4, 1), microFlow(1, 5, 1), microFlow(2, 6, 1),
		}},
		{ID: 3, Arrival: 2 * eps, Flows: []coflow.FlowSpec{microFlow(1, 7, 1)}},
		{ID: 4, Arrival: 3 * eps, Flows: []coflow.FlowSpec{microFlow(2, 8, 1)}},
	}
	return &Trace{Name: "fig1", NumPorts: 9, Specs: specs}
}

// Fig4Trace reproduces the work-conservation example of Fig. 4: three
// CoFlows, each with flows on two of the three sender ports P1..P3
// (nodes 0..2), each flow one unit:
//
//	P1: C1, C2        P2: C2, C3        P3: C1, C3
//
// All-or-none alone serializes them (average CCT 2t); with work
// conservation C3 can borrow idle slots (average CCT 1.67t).
func Fig4Trace() *Trace {
	specs := []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{
			microFlow(0, 3, 1), microFlow(2, 4, 1),
		}},
		{ID: 2, Arrival: coflow.Millisecond, Flows: []coflow.FlowSpec{
			microFlow(0, 5, 1), microFlow(1, 6, 1),
		}},
		{ID: 3, Arrival: 2 * coflow.Millisecond, Flows: []coflow.FlowSpec{
			microFlow(1, 7, 1), microFlow(2, 8, 1),
		}},
	}
	return &Trace{Name: "fig4", NumPorts: 9, Specs: specs}
}

// Fig8Trace reproduces the LCoF-limitation example of Fig. 8: on two
// sender ports S1, S2 (nodes 0, 1), C2 spans both ports with long flows
// (2.5 units), C1 and C3 each have a single one-unit flow:
//
//	S1: C2, C1        S2: C2, C3
//
// In the paper C2 has the least contention count per port but is
// long, so LCoF schedules it first (average CCT 2.83t); optimal runs
// C1/C3 first (average 2.66t). Under this reproduction's k_c — the
// coflows a coflow blocks — C2 (k_c = 2) ranks behind C1 and C3 (k_c =
// 1), so Saath runs C1/C3 first (TestFig8ExactCCTs in internal/sim).
func Fig8Trace() *Trace {
	eps := coflow.Millisecond
	half := coflow.Bytes(MicroUnitBytes / 2)
	specs := []*coflow.Spec{
		{ID: 2, Arrival: 0, Flows: []coflow.FlowSpec{
			{Src: 0, Dst: 2, Size: 2*MicroUnitBytes + half},
			{Src: 1, Dst: 3, Size: 2*MicroUnitBytes + half},
		}},
		{ID: 1, Arrival: eps, Flows: []coflow.FlowSpec{microFlow(0, 4, 1)}},
		{ID: 3, Arrival: 2 * eps, Flows: []coflow.FlowSpec{microFlow(1, 5, 1)}},
	}
	return &Trace{Name: "fig8", NumPorts: 6, Specs: specs}
}

// Fig17Trace reproduces Appendix A's SJF-suboptimality example: two
// sender ports P1, P2 (nodes 0, 1):
//
//	P1: C1 (5t), C2 (6t)        P2: C1 (5t), C3 (7t)
//
// Duration-ordered SJF runs C1 first and blocks both others (average
// CCT 9.3t); the contention-aware order runs C2 and C3 first (8.3t).
func Fig17Trace() *Trace {
	specs := []*coflow.Spec{
		{ID: 1, Arrival: 0, Flows: []coflow.FlowSpec{
			microFlow(0, 2, 5), microFlow(1, 3, 5),
		}},
		{ID: 2, Arrival: 0, Flows: []coflow.FlowSpec{microFlow(0, 4, 6)}},
		{ID: 3, Arrival: 0, Flows: []coflow.FlowSpec{microFlow(1, 5, 7)}},
	}
	return &Trace{Name: "fig17", NumPorts: 6, Specs: specs}
}
