package graph

import (
	"testing"

	"repro/internal/rng"
)

func gridGraph(t *testing.T, rows, cols int) *Graph {
	t.Helper()
	b := NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := int32(r*cols + c)
			if c+1 < cols {
				b.AddEdge(v, v+1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+int32(cols))
			}
		}
	}
	return b.MustBuild()
}

func TestPermuteRoundTrip(t *testing.T) {
	g := gridGraph(t, 3, 3)
	r := rng.NewFib(4)
	perm := make([]int32, g.N())
	inv := make([]int32, g.N())
	for i, v := range r.Perm(g.N()) {
		perm[i] = int32(v)
		inv[v] = int32(i)
	}
	pg, err := Permute(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Permute(pg, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, back) {
		t.Fatal("permute round trip changed the graph")
	}
}

func TestPermutePreservesWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 9)
	b.SetVertexWeight(2, 4)
	g := b.MustBuild()
	pg, err := Permute(g, []int32{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pg.EdgeWeight(2, 0) != 9 {
		t.Fatalf("edge weight lost")
	}
	if pg.VertexWeight(1) != 4 {
		t.Fatalf("vertex weight lost")
	}
}

func TestPermuteErrors(t *testing.T) {
	g := gridGraph(t, 2, 2)
	if _, err := Permute(g, []int32{0, 1}); err == nil {
		t.Fatal("short perm accepted")
	}
	if _, err := Permute(g, []int32{0, 1, 2, 2}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	if _, err := Permute(g, []int32{0, 1, 2, 9}); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

// TestPermutePreservesCut: a side assignment carried through a random
// relabeling cuts exactly as many edges as before it.
func TestPermutePreservesCut(t *testing.T) {
	g := gridGraph(t, 10, 10)
	r := rng.NewFib(9)
	perm := make([]int32, g.N())
	for i, v := range r.Perm(g.N()) {
		perm[i] = int32(v)
	}
	pg, err := Permute(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	side := make([]uint8, g.N())
	pside := make([]uint8, g.N())
	for v := range side {
		side[v] = uint8(r.Intn(2))
		pside[perm[v]] = side[v]
	}
	cut := func(g *Graph, side []uint8) int64 {
		var c int64
		g.Edges(func(u, v, w int32) {
			if side[u] != side[v] {
				c += int64(w)
			}
		})
		return c
	}
	if cut(g, side) != cut(pg, pside) {
		t.Fatalf("cut %d after relabeling, %d before", cut(pg, pside), cut(g, side))
	}
}
