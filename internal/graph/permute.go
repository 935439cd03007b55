package graph

import "fmt"

// Permute returns a copy of g with vertices relabeled by perm: new id
// perm[v] corresponds to old vertex v. perm must be a permutation of
// [0, N).
func Permute(g *Graph, perm []int32) (*Graph, error) {
	if len(perm) != g.N() {
		return nil, fmt.Errorf("graph: Permute with %d entries for %d vertices", len(perm), g.N())
	}
	seen := make([]bool, g.N())
	for _, p := range perm {
		if p < 0 || int(p) >= g.N() || seen[p] {
			return nil, fmt.Errorf("graph: Permute argument is not a permutation")
		}
		seen[p] = true
	}
	b := NewBuilder(g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Weighted() {
			b.SetVertexWeight(perm[v], g.VertexWeight(v))
		}
	}
	g.Edges(func(u, v, w int32) {
		b.AddWeightedEdge(perm[u], perm[v], w)
	})
	return b.Build()
}
