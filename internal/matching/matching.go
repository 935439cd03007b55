// Package matching computes matchings of graphs. The paper's compaction
// heuristic begins by forming "a maximum random matching" — in modern
// terms a random maximal matching — whose edges are then contracted.
//
// A matching is represented as a mate array: mate[v] is v's partner, or
// −1 if v is unmatched.
package matching

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Workspace holds the scratch arrays of the matching algorithms — the
// mate array under construction, the visit permutation, and the
// candidate buffer — so repeated matchings of same-sized graphs (every
// level and start of a compaction campaign) allocate nothing after the
// first call. The zero value is ready to use; a Workspace must not be
// shared across goroutines.
type Workspace struct {
	mate []int32
	perm []int
	cand []int32
}

// resetMate returns the mate buffer resized to n and filled with -1.
func (w *Workspace) resetMate(n int) []int32 {
	if cap(w.mate) < n {
		w.mate = make([]int32, n)
	}
	w.mate = w.mate[:n]
	for i := range w.mate {
		w.mate[i] = -1
	}
	return w.mate
}

// resetPerm returns a uniformly random permutation of [0, n) in the
// reused buffer. Identity-fill followed by Shuffle draws exactly the
// words r.Perm(n) would, so workspace matchings consume the same random
// stream as the allocating package functions — the fixture-pinned
// determinism contract.
func (w *Workspace) resetPerm(n int, r *rng.Rand) []int {
	if cap(w.perm) < n {
		w.perm = make([]int, n)
	}
	w.perm = w.perm[:n]
	for i := range w.perm {
		w.perm[i] = i
	}
	r.Shuffle(w.perm)
	return w.perm
}

// candBuf returns an empty candidate buffer with capacity for the
// largest adjacency list of g.
func (w *Workspace) candBuf(g *graph.Graph) []int32 {
	if d := g.MaxDegree(); cap(w.cand) < d {
		w.cand = make([]int32, 0, d)
	}
	return w.cand[:0]
}

// RandomMaximal is the workspace counterpart of the package function:
// same algorithm, same random stream, zero steady-state allocations.
// The returned mate array is owned by the workspace and valid until its
// next use. The method value satisfies coarsen.MatchFunc.
func (w *Workspace) RandomMaximal(g *graph.Graph, r *rng.Rand) []int32 {
	mate := w.resetMate(g.N())
	cand := w.candBuf(g)
	for _, vi := range w.resetPerm(g.N(), r) {
		v := int32(vi)
		if mate[v] >= 0 {
			continue
		}
		cand = cand[:0]
		for _, e := range g.Neighbors(v) {
			if mate[e.To] < 0 {
				cand = append(cand, e.To)
			}
		}
		if len(cand) == 0 {
			continue
		}
		u := cand[r.Intn(len(cand))]
		mate[v], mate[u] = u, v
	}
	return mate
}

// HeavyEdge is the workspace counterpart of the package function: same
// algorithm, same random stream, zero steady-state allocations. The
// returned mate array is owned by the workspace and valid until its
// next use.
func (w *Workspace) HeavyEdge(g *graph.Graph, r *rng.Rand) []int32 {
	mate := w.resetMate(g.N())
	best := w.candBuf(g)
	for _, vi := range w.resetPerm(g.N(), r) {
		v := int32(vi)
		if mate[v] >= 0 {
			continue
		}
		var bw int32 = -1
		best = best[:0]
		for _, e := range g.Neighbors(v) {
			if mate[e.To] >= 0 {
				continue
			}
			switch {
			case e.W > bw:
				bw = e.W
				best = append(best[:0], e.To)
			case e.W == bw:
				best = append(best, e.To)
			}
		}
		if len(best) == 0 {
			continue
		}
		u := best[r.Intn(len(best))]
		mate[v], mate[u] = u, v
	}
	return mate
}

// RandomMaximal greedily builds a maximal matching: vertices are visited
// in uniformly random order, and each still-unmatched vertex is matched
// with a uniformly random unmatched neighbor (if any). The result is
// maximal — no edge can be added — and its randomness is exactly what the
// compaction heuristic needs to decorrelate successive contractions.
//
// This allocates fresh result and scratch arrays per call; campaigns
// that match repeatedly should hold a Workspace and call its method.
func RandomMaximal(g *graph.Graph, r *rng.Rand) []int32 {
	var w Workspace
	return w.RandomMaximal(g, r)
}

// HeavyEdge builds a maximal matching preferring heavy edges: vertices
// are visited in random order and matched with the heaviest unmatched
// neighbor (ties broken uniformly at random). On contracted graphs this
// is the classical heavy-edge matching rule of multilevel partitioners;
// it is provided for the matching-policy ablation. Like RandomMaximal
// it allocates per call; use a Workspace to amortize.
func HeavyEdge(g *graph.Graph, r *rng.Rand) []int32 {
	var w Workspace
	return w.HeavyEdge(g, r)
}

// Size returns the number of matched edges.
func Size(mate []int32) int {
	matched := 0
	for _, m := range mate {
		if m >= 0 {
			matched++
		}
	}
	return matched / 2
}

// Validate checks that mate is a matching of g: involutive, irreflexive,
// and supported on edges of g.
func Validate(g *graph.Graph, mate []int32) error {
	if len(mate) != g.N() {
		return fmt.Errorf("matching: mate array has %d entries for %d vertices", len(mate), g.N())
	}
	for v, m := range mate {
		if m < 0 {
			continue
		}
		if int(m) >= g.N() {
			return fmt.Errorf("matching: mate[%d] = %d out of range", v, m)
		}
		if m == int32(v) {
			return fmt.Errorf("matching: vertex %d matched to itself", v)
		}
		if mate[m] != int32(v) {
			return fmt.Errorf("matching: mate[%d]=%d but mate[%d]=%d", v, m, m, mate[m])
		}
		if !g.HasEdge(int32(v), m) {
			return fmt.Errorf("matching: pair {%d,%d} is not an edge", v, m)
		}
	}
	return nil
}

// IsMaximal reports whether no edge of g has both endpoints unmatched.
func IsMaximal(g *graph.Graph, mate []int32) bool {
	maximal := true
	g.Edges(func(u, v, _ int32) {
		if mate[u] < 0 && mate[v] < 0 {
			maximal = false
		}
	})
	return maximal
}
