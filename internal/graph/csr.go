package graph

import "fmt"

// This file holds the one place a Graph's CSR arrays are adopted and
// checked: ResetCSR. Builder.Build scatters, sorts and merges its
// records into rows and ends in ResetCSR; the contraction kernel in
// internal/coarsen writes its rows already sorted and calls ResetCSR on
// the same Graph value level after level from workspace-owned buffers;
// the BCSR loader hands it the read-only sections of a mapped image;
// Validate runs ResetCSR over a graph's own arrays into a scratch Graph
// and adds the symmetry check.

// sortEdges sorts a half-edge list in place by head vertex without
// allocating: insertion sort for the short rows that dominate the
// paper's sparse instances, heapsort above that so adversarial degrees
// stay O(d log d). Build uses it to establish the by-To row order
// EdgeWeight's binary search relies on.
func sortEdges(a []Edge) {
	if len(a) <= 32 {
		for i := 1; i < len(a); i++ {
			e := a[i]
			j := i - 1
			for j >= 0 && a[j].To > e.To {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = e
		}
		return
	}
	// Heapsort: sift-down max-heap, then repeated extraction.
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDownEdges(a, i, len(a))
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDownEdges(a, 0, end)
	}
}

func siftDownEdges(a []Edge, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1].To > a[child].To {
			child++
		}
		if a[root].To >= a[child].To {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// checkSymmetry verifies the one cross-row invariant the per-row sweeps
// cannot: every half-edge's mirror exists with equal weight.
func checkSymmetry(g *Graph) error {
	for u := int32(0); int(u) < g.n; u++ {
		for _, e := range g.Neighbors(u) {
			if w := g.EdgeWeight(e.To, u); w != e.W {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}: %d vs %d", u, e.To, e.W, w)
			}
		}
	}
	return nil
}

// ResetCSR re-initializes g in place from CSR arrays whose rows are
// already strictly sorted by head vertex, recomputing every cached
// aggregate. It checks each row — offsets that stay within edges and
// never decrease, heads in range, strict sortedness (which subsumes
// duplicate detection), no self-loops, positive weights — and two
// totals every symmetric graph meets: the half-edges number twice the
// forward edges (head above the row's vertex) and weigh twice as much.
// Full adjacency symmetry is the caller's contract (Builder output and
// the contraction kernel's coarse graph are symmetric by construction,
// and Validate checks it).
//
// The slices are adopted, not copied, and ResetCSR allocates nothing,
// so workspace-owned Graphs reach a zero-allocation steady state and a
// mapped BCSR image is served where it lies. On error g is unchanged.
func (g *Graph) ResetCSR(off []int32, edges []Edge, vw []int32) error {
	if len(off) == 0 {
		return fmt.Errorf("graph: ResetCSR needs at least one offset entry")
	}
	n := len(off) - 1
	if n > MaxVertices {
		return tooLarge("vertex count", uint64(n), MaxVertices)
	}
	if off[0] != 0 {
		return fmt.Errorf("graph: ResetCSR offsets start at %d, not 0", off[0])
	}
	if int(off[n]) != len(edges) {
		return fmt.Errorf("graph: ResetCSR offsets cover %d half-edges, got %d", off[n], len(edges))
	}
	if vw != nil && len(vw) != n {
		return fmt.Errorf("graph: ResetCSR vertex weights have %d entries for %d vertices", len(vw), n)
	}
	var (
		m       int
		ew, hw  int64 // forward-edge weight, half-edge weight
		maxDeg  int
		maxWDeg int64
	)
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		if hi < lo {
			return fmt.Errorf("graph: ResetCSR offsets decrease at vertex %d", v)
		}
		if int(hi) > len(edges) {
			return fmt.Errorf("graph: ResetCSR offset %d of vertex %d is past the %d half-edges", hi, v+1, len(edges))
		}
		if d := int(hi - lo); d > maxDeg {
			maxDeg = d
		}
		var wd int64
		prev := int32(-1)
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.To < 0 || int(e.To) >= n {
				return fmt.Errorf("graph: vertex %d has neighbor %d out of range [0,%d)", v, e.To, n)
			}
			if int(e.To) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if e.To <= prev {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at %d", v, e.To)
			}
			if e.W <= 0 {
				return fmt.Errorf("graph: non-positive weight %d on edge {%d,%d}", e.W, v, e.To)
			}
			prev = e.To
			wd += int64(e.W)
			if int(e.To) > v {
				m++
				ew += int64(e.W)
			}
		}
		hw += wd
		if wd > maxWDeg {
			maxWDeg = wd
		}
	}
	if 2*m != len(edges) {
		return fmt.Errorf("graph: ResetCSR half-edge count %d is not twice the %d forward edges (asymmetric input)", len(edges), m)
	}
	if hw != 2*ew {
		return fmt.Errorf("graph: ResetCSR half-edge weight %d is not twice the forward edges' %d (asymmetric input)", hw, ew)
	}
	var vwUp int64
	var maxVW int32 = 1
	if vw != nil {
		for v, w := range vw {
			if w <= 0 {
				return fmt.Errorf("graph: non-positive vertex weight %d at vertex %d", w, v)
			}
			vwUp += int64(w)
			if w > maxVW {
				maxVW = w
			}
		}
	} else {
		vwUp = int64(n)
	}
	*g = Graph{
		n: n, off: off, edges: edges, vw: vw,
		m: m, ew: ew, vwUp: vwUp,
		maxDeg: maxDeg, maxWDeg: maxWDeg, maxVW: maxVW,
	}
	return nil
}
