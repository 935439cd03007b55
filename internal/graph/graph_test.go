package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// path builds a path graph 0-1-2-...-(n-1).
func path(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cycleGraph builds a cycle on n >= 3 vertices.
func cycleGraph(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

// complete builds K_n.
func complete(t testing.TB, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.MustBuild()
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).MustBuild()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	if _, count := g.Components(); count != 0 {
		t.Fatalf("empty graph has %d components", count)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("empty graph AvgDegree = %v", g.AvgDegree())
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := NewBuilder(5).MustBuild()
	if g.N() != 5 || g.M() != 0 || g.TotalVertexWeight() != 5 {
		t.Fatalf("n=%d m=%d vw=%d", g.N(), g.M(), g.TotalVertexWeight())
	}
	if got := len(g.ComponentSizes()); got != 5 {
		t.Fatalf("want 5 components, got %d", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderBasics(t *testing.T) {
	g := path(t, 4)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("path4: n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("missing edge {0,1}")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected edge {0,2}")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatalf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	if g.TotalEdgeWeight() != 3 {
		t.Fatalf("total edge weight %d", g.TotalEdgeWeight())
	}
	if g.TotalVertexWeight() != 4 {
		t.Fatalf("total vertex weight %d", g.TotalVertexWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 0, 3) // same undirected edge, reversed
	b.AddEdge(1, 2)
	g := b.MustBuild()
	if g.M() != 2 {
		t.Fatalf("want 2 edges after merging, got %d", g.M())
	}
	if w := g.EdgeWeight(0, 1); w != 5 {
		t.Fatalf("merged weight = %d, want 5", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop not rejected")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range edge not rejected")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("negative vertex not rejected")
	}
}

func TestBuilderRejectsNonPositiveWeights(t *testing.T) {
	b := NewBuilder(2)
	b.AddWeightedEdge(0, 1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("zero edge weight not rejected")
	}
	b2 := NewBuilder(2)
	b2.SetVertexWeight(0, -1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("negative vertex weight not rejected")
	}
}

func TestBuilderNegativeN(t *testing.T) {
	if _, err := NewBuilder(-1).Build(); err == nil {
		t.Fatal("negative vertex count not rejected")
	}
}

func TestVertexWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.SetVertexWeight(0, 5)
	g := b.MustBuild()
	if !g.Weighted() {
		t.Fatal("graph should report weighted vertices")
	}
	if g.VertexWeight(0) != 5 || g.VertexWeight(1) != 1 || g.VertexWeight(2) != 1 {
		t.Fatalf("weights: %d %d %d", g.VertexWeight(0), g.VertexWeight(1), g.VertexWeight(2))
	}
	if g.TotalVertexWeight() != 7 {
		t.Fatalf("total vertex weight %d, want 7", g.TotalVertexWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := complete(t, 5)
	count := 0
	g.Edges(func(u, v, w int32) {
		if u >= v {
			t.Fatalf("Edges yielded u=%d >= v=%d", u, v)
		}
		if w != 1 {
			t.Fatalf("unit graph yielded weight %d", w)
		}
		count++
	})
	if count != 10 {
		t.Fatalf("K5 has 10 edges, iterated %d", count)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.MustBuild()
	id, count := g.Components()
	if count != 4 {
		t.Fatalf("want 4 components, got %d", count)
	}
	if id[0] != id[1] || id[1] != id[2] {
		t.Fatal("vertices 0,1,2 should share a component")
	}
	if id[3] != id[4] {
		t.Fatal("vertices 3,4 should share a component")
	}
	if id[5] == id[6] || id[5] == id[0] {
		t.Fatal("isolated vertices must have distinct components")
	}
	sizes := g.ComponentSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 7 {
		t.Fatalf("component sizes sum to %d, want 7", total)
	}
}

func TestIsRegular(t *testing.T) {
	if !cycleGraph(t, 8).IsRegular(2) {
		t.Fatal("cycle should be 2-regular")
	}
	if path(t, 4).IsRegular(2) {
		t.Fatal("path is not 2-regular")
	}
	if !complete(t, 5).IsRegular(4) {
		t.Fatal("K5 should be 4-regular")
	}
}

func TestWeightedDegree(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 4)
	b.AddWeightedEdge(0, 2, 3)
	g := b.MustBuild()
	if got := g.WeightedDegree(0); got != 7 {
		t.Fatalf("weighted degree = %d, want 7", got)
	}
}

func TestMaxDegree(t *testing.T) {
	if got := NewBuilder(0).MustBuild().MaxDegree(); got != 0 {
		t.Fatalf("empty MaxDegree = %d", got)
	}
	if got := complete(t, 6).MaxDegree(); got != 5 {
		t.Fatalf("K6 MaxDegree = %d", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := path(t, 3)
	// Corrupt the cached edge count.
	g.m++
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed corrupted edge count")
	}
	g.m--
	// Corrupt symmetry (the reverse half-edge keeps the old weight, and
	// the cached weighted degree no longer matches either).
	g.edges[0].W = 9
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric weights")
	}
}

func TestStringSummary(t *testing.T) {
	s := path(t, 4).String()
	if s == "" {
		t.Fatal("String returned empty summary")
	}
}

// randomGraph builds a random simple graph for property tests.
func randomGraph(r *rng.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for k := 0; k < m; k++ {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		b.AddWeightedEdge(u, v, int32(1+r.Intn(5)))
	}
	return b.MustBuild()
}

func TestPropertyRandomGraphsValidate(t *testing.T) {
	r := rng.NewFib(100)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(60)
		m := r.Intn(3 * n)
		g := randomGraph(r, n, m)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPropertyHandshake(t *testing.T) {
	// Sum of degrees equals twice the edge count on random graphs.
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 + r.Intn(40)
		g := randomGraph(r, n, r.Intn(2*n))
		sum := 0
		for v := int32(0); int(v) < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEdgeWeightSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 + r.Intn(30)
		g := randomGraph(r, n, r.Intn(3*n))
		for u := int32(0); int(u) < g.N(); u++ {
			for v := int32(0); int(v) < g.N(); v++ {
				if g.EdgeWeight(u, v) != g.EdgeWeight(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
