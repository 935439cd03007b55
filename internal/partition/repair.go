package partition

// RepairBalance restores weight balance to a bisection by greedily moving
// the highest-gain movable vertex from the heavy side until no single
// move reduces the imbalance. It returns the final imbalance, which is at
// most the lightest heavy-side vertex weight and so at most the graph's
// largest vertex weight; on unit weights it is the parity of the total
// weight.
//
// Moving weight w from the heavy side changes the imbalance from d to
// |d − 2w|, a strict decrease iff w < d; among strict decreases the move
// with the best cut gain is taken, breaking ties toward larger weight
// (faster convergence).
func RepairBalance(b *Bisection) int64 {
	for {
		d := b.SideWeight(0) - b.SideWeight(1)
		abs := d
		if abs < 0 {
			abs = -abs
		}
		if abs <= 1 {
			return abs // every vertex weighs at least 1: no move decreases it
		}
		heavy := uint8(0)
		if d < 0 {
			heavy = 1
		}
		best := int32(-1)
		var bestGain int64
		var bestW int64
		for v := int32(0); int(v) < b.N(); v++ {
			if b.Side(v) != heavy {
				continue
			}
			w := int64(b.Graph().VertexWeight(v))
			if w >= abs {
				continue // would overshoot into a worse or equal imbalance
			}
			g := b.Gain(v)
			if best < 0 || g > bestGain || (g == bestGain && w > bestW) {
				best, bestGain, bestW = v, g, w
			}
		}
		if best < 0 {
			return abs // no strictly improving move exists
		}
		b.Move(best)
	}
}
