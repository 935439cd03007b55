// Package partition maintains bisection state: a two-way assignment of
// vertices with incrementally-updated cut weight, per-side vertex weight,
// and per-vertex move gains, plus the bucket gain structure used by the
// move-based refinement algorithms.
//
// The gain of vertex v is defined as (external weight) − (internal
// weight): the amount by which the weighted cut decreases if v moves to
// the other side. The swap gain of an opposite-side pair (a, b) is
// gain(a) + gain(b) − 2·w(a,b), matching the paper's
// g_ab = g_a + g_b − 2δ(a,b).
package partition

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Bisection is a mutable two-way partition of a graph's vertices with
// incrementally maintained cut, side weights, and vertex gains. Moves and
// swaps cost O(deg).
type Bisection struct {
	g     *graph.Graph
	side  []uint8
	gain  []int64
	cut   int64
	sideW [2]int64
}

// New creates a Bisection from an explicit side assignment (entries must
// be 0 or 1). The slice is copied.
func New(g *graph.Graph, side []uint8) (*Bisection, error) {
	if len(side) != g.N() {
		return nil, fmt.Errorf("partition: side slice has %d entries for %d vertices", len(side), g.N())
	}
	b := &Bisection{g: g, side: append([]uint8(nil), side...)}
	b.gain = make([]int64, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if b.side[v] > 1 {
			return nil, fmt.Errorf("partition: vertex %d assigned to side %d", v, b.side[v])
		}
		b.sideW[b.side[v]] += int64(g.VertexWeight(v))
	}
	b.recomputeGainsAndCut()
	return b, nil
}

// NewRandom creates a random bisection balanced by vertex weight: vertices
// are visited in uniformly random order and each is assigned to the
// currently lighter side. For unit weights on an even vertex count this
// yields an exactly balanced random bisection, as the paper's random
// initial bisections require.
func NewRandom(g *graph.Graph, r *rng.Rand) *Bisection {
	side := make([]uint8, g.N())
	perm := r.Perm(g.N())
	var w [2]int64
	for _, v := range perm {
		s := uint8(0)
		if w[1] < w[0] {
			s = 1
		} else if w[1] == w[0] && r.Bool() {
			s = 1
		}
		side[v] = s
		w[s] += int64(g.VertexWeight(int32(v)))
	}
	b, err := New(g, side)
	if err != nil {
		panic("partition: NewRandom produced invalid assignment: " + err.Error())
	}
	return b
}

// recomputeGainsAndCut rebuilds cut and all gains from scratch in O(m).
func (b *Bisection) recomputeGainsAndCut() {
	b.cut = 0
	for v := int32(0); int(v) < b.g.N(); v++ {
		var ext, intl int64
		for _, e := range b.g.Neighbors(v) {
			if b.side[e.To] != b.side[v] {
				ext += int64(e.W)
			} else {
				intl += int64(e.W)
			}
		}
		b.gain[v] = ext - intl
		b.cut += ext
	}
	b.cut /= 2
}

// Graph returns the underlying graph.
func (b *Bisection) Graph() *graph.Graph { return b.g }

// N returns the number of vertices.
func (b *Bisection) N() int { return b.g.N() }

// Side returns the side (0 or 1) of v.
func (b *Bisection) Side(v int32) uint8 { return b.side[v] }

// Sides returns a copy of the side assignment.
func (b *Bisection) Sides() []uint8 { return append([]uint8(nil), b.side...) }

// SidesRef returns the live side assignment without copying. The slice
// is owned by the bisection: it must not be mutated, and its contents
// change with every Move/Swap. Hot read-only consumers (projection,
// cut evaluation, snapshotting into caller-owned buffers) use this to
// avoid a per-call allocation; everyone else should prefer Sides.
func (b *Bisection) SidesRef() []uint8 { return b.side }

// GainsRef returns the live per-vertex gain array without copying. Like
// SidesRef, the slice is owned by the bisection and updated in place by
// every Move/Swap; callers must treat it as read-only. The annealing
// inner loop reads a gain per trial, so the accessor-call and bounds
// overhead of Gain(v) is worth eliding there.
func (b *Bisection) GainsRef() []int64 { return b.gain }

// SetSides overwrites the side assignment from an explicit slice
// (entries must be 0 or 1) and rebuilds the incremental state in O(m)
// without allocating. It is the undo-log counterpart to Assign: a
// caller that tracked only the side array of a past state (e.g. the
// best state seen during annealing, maintained by replaying a move log)
// can rematerialize the full bisection — gains, cut, side weights — at
// the end of a run instead of cloning on every improvement.
func (b *Bisection) SetSides(side []uint8) error {
	if len(side) != b.g.N() {
		return fmt.Errorf("partition: SetSides with %d entries for %d vertices", len(side), b.g.N())
	}
	for v, s := range side {
		if s > 1 {
			return fmt.Errorf("partition: vertex %d assigned to side %d", v, s)
		}
	}
	copy(b.side, side)
	b.sideW = [2]int64{}
	for v := int32(0); int(v) < b.g.N(); v++ {
		b.sideW[b.side[v]] += int64(b.g.VertexWeight(v))
	}
	b.recomputeGainsAndCut()
	return nil
}

// Reset re-initializes b for graph g with the given side assignment
// (entries must be 0 or 1; the slice is copied), rebuilding all
// incremental state in O(m). Unlike New it works on an existing value —
// including the zero value — and grows the internal arrays only when g
// is larger than any graph this bisection has held, so a warm bisection
// resets without allocating. Unlike SetSides it accepts a different
// graph, or the same *graph.Graph whose contents were rebuilt in place
// (the multilevel workspace re-derives its level graphs every run), so
// it never trusts previously cached sizes.
func (b *Bisection) Reset(g *graph.Graph, side []uint8) error {
	n := g.N()
	if len(side) != n {
		return fmt.Errorf("partition: Reset with %d entries for %d vertices", len(side), n)
	}
	for v, s := range side {
		if s > 1 {
			return fmt.Errorf("partition: vertex %d assigned to side %d", v, s)
		}
	}
	b.g = g
	if cap(b.side) < n {
		b.side = make([]uint8, n)
	}
	b.side = b.side[:n]
	copy(b.side, side)
	if cap(b.gain) < n {
		b.gain = make([]int64, n)
	}
	b.gain = b.gain[:n]
	b.sideW = [2]int64{}
	for v := int32(0); int(v) < n; v++ {
		b.sideW[b.side[v]] += int64(g.VertexWeight(v))
	}
	b.recomputeGainsAndCut()
	return nil
}

// Cut returns the weighted cut.
func (b *Bisection) Cut() int64 { return b.cut }

// SideWeight returns the total vertex weight on side s.
func (b *Bisection) SideWeight(s uint8) int64 { return b.sideW[s] }

// Imbalance returns |w(side 0) − w(side 1)|.
func (b *Bisection) Imbalance() int64 {
	d := b.sideW[0] - b.sideW[1]
	if d < 0 {
		d = -d
	}
	return d
}

// CountSides returns the number of vertices on each side.
func (b *Bisection) CountSides() (n0, n1 int) {
	for _, s := range b.side {
		if s == 0 {
			n0++
		} else {
			n1++
		}
	}
	return n0, n1
}

// Gain returns the cut decrease achieved by moving v across.
func (b *Bisection) Gain(v int32) int64 { return b.gain[v] }

// SwapGain returns the cut decrease achieved by exchanging a and b, which
// must be on opposite sides: gain(a) + gain(b) − 2·w(a,b).
func (b *Bisection) SwapGain(a, v int32) int64 {
	return b.gain[a] + b.gain[v] - 2*int64(b.g.EdgeWeight(a, v))
}

// Move transfers v to the other side, updating cut, side weights, and the
// gains of v and its neighbors in O(deg(v)).
func (b *Bisection) Move(v int32) {
	old := b.side[v]
	b.cut -= b.gain[v]
	b.gain[v] = -b.gain[v]
	b.side[v] = 1 - old
	w := int64(b.g.VertexWeight(v))
	b.sideW[old] -= w
	b.sideW[1-old] += w
	// Each neighbor's gain changes by +2w if it now sits across from v
	// (the edge joined the cut) and −2w if alongside (the edge left the
	// cut, so moving the neighbor would re-create it). Neighbor sides are
	// close to coin flips during refinement, so the sign is applied with
	// two's-complement arithmetic instead of an unpredictable branch:
	// m = 0 selects +d, m = −1 selects (d ^ −1) + 1 = −d.
	side, gain := b.side, b.gain
	sv := b.side[v]
	for _, e := range b.g.Neighbors(v) {
		d := int64(e.W) << 1
		m := int64(side[e.To]^sv) - 1
		gain[e.To] += (d ^ m) - m
	}
}

// Swap exchanges opposite-side vertices a and v (a convenience for the
// KL pairwise interchange). It panics if they share a side.
func (b *Bisection) Swap(a, v int32) {
	if b.side[a] == b.side[v] {
		panic("partition: Swap on same-side vertices")
	}
	b.Move(a)
	b.Move(v)
}

// Clone returns an independent copy sharing the underlying (immutable)
// graph.
func (b *Bisection) Clone() *Bisection {
	return &Bisection{
		g:     b.g,
		side:  append([]uint8(nil), b.side...),
		gain:  append([]int64(nil), b.gain...),
		cut:   b.cut,
		sideW: b.sideW,
	}
}

// Assign overwrites this bisection's state from another (same graph).
func (b *Bisection) Assign(from *Bisection) {
	if b.g != from.g {
		panic("partition: Assign across different graphs")
	}
	copy(b.side, from.side)
	copy(b.gain, from.gain)
	b.cut = from.cut
	b.sideW = from.sideW
}

// Validate recomputes all incremental state from scratch and returns an
// error if any cached value has drifted. Used by tests and the harness's
// paranoid mode.
func (b *Bisection) Validate() error {
	fresh, err := New(b.g, b.side)
	if err != nil {
		return err
	}
	if fresh.cut != b.cut {
		return fmt.Errorf("partition: cached cut %d != recomputed %d", b.cut, fresh.cut)
	}
	if fresh.sideW != b.sideW {
		return fmt.Errorf("partition: cached side weights %v != recomputed %v", b.sideW, fresh.sideW)
	}
	for v := range b.gain {
		if b.gain[v] != fresh.gain[v] {
			return fmt.Errorf("partition: cached gain[%d] = %d != recomputed %d", v, b.gain[v], fresh.gain[v])
		}
	}
	return nil
}

// CutOf computes the weighted cut of an explicit side assignment without
// building a Bisection.
func CutOf(g *graph.Graph, side []uint8) int64 {
	var cut int64
	g.Edges(func(u, v, w int32) {
		if side[u] != side[v] {
			cut += int64(w)
		}
	})
	return cut
}

// String returns a short summary.
func (b *Bisection) String() string {
	n0, n1 := b.CountSides()
	return fmt.Sprintf("bisection{cut=%d sides=%d/%d weights=%d/%d}", b.cut, n0, n1, b.sideW[0], b.sideW[1])
}
