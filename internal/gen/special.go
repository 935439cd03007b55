package gen

// Deterministic special graph families. The paper tests grid graphs,
// ladder graphs (its known KL-adversarial example), and complete binary
// trees; cycle collections arise as the degree-2 case of 𝒢breg that
// Section VI discusses. The remaining families (path, hypercube,
// caterpillar, complete bipartite, complete) are standard topologies
// whose bisection widths are known, used by tests and the exact
// oracles.

import (
	"fmt"

	"repro/internal/graph"
)

// Path returns the path graph on n vertices: 0−1−…−(n−1).
func Path(n int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: Path with negative n=%d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// Cycle returns the cycle on n ≥ 3 vertices.
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: Cycle needs n ≥ 3, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// CycleCollection returns the disjoint union of cycles with the given
// sizes (each ≥ 3). Under 𝒢breg these are exactly the degree-2 graphs the
// paper notes must be "a collection of chordless cycles".
func CycleCollection(sizes []int) (*graph.Graph, error) {
	total := 0
	for _, s := range sizes {
		if s < 3 {
			return nil, fmt.Errorf("gen: CycleCollection with cycle size %d < 3", s)
		}
		total += s
	}
	b := graph.NewBuilder(total)
	off := 0
	for _, s := range sizes {
		for i := 0; i < s; i++ {
			b.AddEdge(int32(off+i), int32(off+(i+1)%s))
		}
		off += s
	}
	return b.Build()
}

// Ladder returns the 2×k ladder graph: two rails of k vertices joined by
// k rungs. Vertex 2i is rail-A position i; vertex 2i+1 is rail-B position
// i. This is the classical graph on which plain Kernighan–Lin "fails
// badly" (its optimal bisection cuts just 2 rail edges, but KL's pairwise
// swaps cannot discover the contiguous-half structure from a random
// start).
func Ladder(k int) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("gen: Ladder needs k ≥ 1, got %d", k)
	}
	b := graph.NewBuilder(2 * k)
	for i := 0; i < k; i++ {
		b.AddEdge(int32(2*i), int32(2*i+1)) // rung
		if i+1 < k {
			b.AddEdge(int32(2*i), int32(2*(i+1)))     // rail A
			b.AddEdge(int32(2*i+1), int32(2*(i+1)+1)) // rail B
		}
	}
	return b.Build()
}

// Ladder3N returns the paper's "ladder graph with 3N nodes": a 2×N ladder
// whose every rung carries a midpoint vertex (rung a_i—b_i becomes
// a_i—m_i—b_i). Vertices: a_i = 3i, b_i = 3i+1, m_i = 3i+2. The topology
// remains a constant-width ladder, with average degree 8/3 − o(1), and its
// bisection width is 2 for N ≥ 2 (cut both rails at the midpoint).
func Ladder3N(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: Ladder3N needs N ≥ 1, got %d", n)
	}
	b := graph.NewBuilder(3 * n)
	for i := 0; i < n; i++ {
		a, bb, m := int32(3*i), int32(3*i+1), int32(3*i+2)
		b.AddEdge(a, m)
		b.AddEdge(m, bb)
		if i+1 < n {
			b.AddEdge(a, int32(3*(i+1)))
			b.AddEdge(bb, int32(3*(i+1)+1))
		}
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph. Vertex (r,c) has index r*cols+c.
func Grid(rows, cols int) (*graph.Graph, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("gen: Grid with negative dimension %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows * cols)
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
	return b.Build()
}

// CompleteBinaryTree returns the binary tree on n vertices in heap layout:
// vertex i has children 2i+1 and 2i+2 (when < n) and parent (i−1)/2.
func CompleteBinaryTree(n int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: CompleteBinaryTree with negative n=%d", n)
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i), int32((i-1)/2))
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices.
func Hypercube(dim int) (*graph.Graph, error) {
	if dim < 0 || dim > 20 {
		return nil, fmt.Errorf("gen: Hypercube dimension %d outside [0,20]", dim)
	}
	n := 1 << dim
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			u := v ^ (1 << bit)
			if u > v {
				b.AddEdge(int32(v), int32(u))
			}
		}
	}
	return b.Build()
}

// CompleteBipartite returns K_{a,b}: sides {0..a−1} and {a..a+b−1}.
func CompleteBipartite(a, bn int) (*graph.Graph, error) {
	if a < 0 || bn < 0 {
		return nil, fmt.Errorf("gen: CompleteBipartite with negative side (%d,%d)", a, bn)
	}
	b := graph.NewBuilder(a + bn)
	for i := 0; i < a; i++ {
		for j := 0; j < bn; j++ {
			b.AddEdge(int32(i), int32(a+j))
		}
	}
	return b.Build()
}

// Caterpillar returns a caterpillar tree: a spine path of spine vertices,
// each carrying legs pendant vertices. Total vertices: spine*(1+legs).
func Caterpillar(spine, legs int) (*graph.Graph, error) {
	if spine < 1 || legs < 0 {
		return nil, fmt.Errorf("gen: Caterpillar(spine=%d, legs=%d) infeasible", spine, legs)
	}
	n := spine * (1 + legs)
	b := graph.NewBuilder(n)
	for i := 0; i < spine; i++ {
		if i+1 < spine {
			b.AddEdge(int32(i), int32(i+1))
		}
		for l := 0; l < legs; l++ {
			b.AddEdge(int32(i), int32(spine+i*legs+l))
		}
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: Complete with negative n=%d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}
