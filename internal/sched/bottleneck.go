package sched

import "saath/internal/coflow"

// Bottleneck computes Γ, the time a CoFlow would take to finish if
// every port ran at full rate bw dedicated to it: the most remaining
// bytes at any one egress or ingress port, sent at bw. Γ is Varys'
// SEBF key and the duration the clairvoyant SJF-duration and LWTF order
// by. The per-port sums live in arrays kept across calls, indexed by
// port direction (egress p at 2p, ingress p at 2p+1) and cleared by the
// list of directions touched, so a call costs the CoFlow's pending flows
// and allocates nothing once the arrays cover its ports. The zero value
// is ready to use.
type Bottleneck struct {
	bytes   []coflow.Bytes
	touched []int32
}

// Gamma returns c's Γ at port rate bw. The per-port sums are integers,
// so Γ does not depend on the order they are taken in.
func (b *Bottleneck) Gamma(c *coflow.CoFlow, bw coflow.Rate) coflow.Time {
	b.touched = b.touched[:0]
	for _, f := range c.PendingFlows() {
		for _, dir := range [2]int{2 * int(f.Src), 2*int(f.Dst) + 1} {
			for dir >= len(b.bytes) {
				b.bytes = append(b.bytes, 0) // grow path: the arrays follow the port range
			}
			if b.bytes[dir] == 0 {
				b.touched = append(b.touched, int32(dir))
			}
			b.bytes[dir] += f.Remaining()
		}
	}
	var worst coflow.Bytes
	for _, dir := range b.touched {
		worst = max(worst, b.bytes[dir])
		b.bytes[dir] = 0
	}
	return bw.TimeToSend(worst)
}
