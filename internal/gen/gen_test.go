package gen

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// connected reports whether g has at most one connected component.
func connected(g *graph.Graph) bool {
	_, count := g.Components()
	return count <= 1
}

// unitWeights fails t unless g has the unit weights every generator
// promises: each edge emitted once (the Builder would merge a repeated
// one into a weight-2 edge) and every vertex of weight 1.
func unitWeights(t *testing.T, g *graph.Graph) {
	t.Helper()
	if g.TotalEdgeWeight() != int64(g.M()) || g.MaxVertexWeight() != 1 {
		t.Fatalf("%v: total edge weight %d, max vertex weight %d; want %d and 1",
			g, g.TotalEdgeWeight(), g.MaxVertexWeight(), g.M())
	}
}

// degreeCounts maps each degree to the number of vertices that have it.
func degreeCounts(g *graph.Graph) map[int]int {
	h := make(map[int]int)
	for v := int32(0); int(v) < g.N(); v++ {
		h[g.Degree(v)]++
	}
	return h
}

func TestPairFromIndexBijection(t *testing.T) {
	// For n = 12 the indices 0..C(12,2)-1 must enumerate each pair u<v
	// exactly once.
	const n = 12
	total := int64(n * (n - 1) / 2)
	seen := make(map[[2]int64]bool)
	for k := int64(0); k < total; k++ {
		u, v := pairFromIndex(k)
		if u < 0 || v <= u || v >= n {
			t.Fatalf("index %d -> invalid pair (%d,%d)", k, u, v)
		}
		p := [2]int64{u, v}
		if seen[p] {
			t.Fatalf("index %d -> duplicate pair (%d,%d)", k, u, v)
		}
		seen[p] = true
	}
	if int64(len(seen)) != total {
		t.Fatalf("enumerated %d pairs, want %d", len(seen), total)
	}
}

func TestGNPExtremes(t *testing.T) {
	r := rng.NewFib(1)
	g0, err := GNP(50, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g0)
	if g0.M() != 0 {
		t.Fatalf("GNP(50,0) has %d edges", g0.M())
	}
	g1, err := GNP(20, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g1)
	if g1.M() != 190 {
		t.Fatalf("GNP(20,1) has %d edges, want 190", g1.M())
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGNPEdgeCountNearExpectation(t *testing.T) {
	r := rng.NewFib(7)
	const n = 1000
	const p = 0.01
	g, err := GNP(n, p, r)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	expected := p * float64(n) * float64(n-1) / 2
	sd := math.Sqrt(expected * (1 - p))
	if diff := math.Abs(float64(g.M()) - expected); diff > 6*sd {
		t.Fatalf("GNP edge count %d is %.1f sd from expectation %.0f", g.M(), diff/sd, expected)
	}
}

func TestGNPDeterministic(t *testing.T) {
	a, _ := GNP(100, 0.05, rng.NewFib(3))
	b, _ := GNP(100, 0.05, rng.NewFib(3))
	unitWeights(t, a)
	if a.M() != b.M() {
		t.Fatalf("same seed produced %d vs %d edges", a.M(), b.M())
	}
	equal := true
	a.Edges(func(u, v, w int32) {
		if !b.HasEdge(u, v) {
			equal = false
		}
	})
	if !equal {
		t.Fatal("same seed produced different edge sets")
	}
}

func TestGNPErrors(t *testing.T) {
	r := rng.NewFib(1)
	if _, err := GNP(-1, 0.5, r); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := GNP(10, -0.1, r); err == nil {
		t.Fatal("negative p accepted")
	}
	if _, err := GNP(10, 1.1, r); err == nil {
		t.Fatal("p>1 accepted")
	}
}

// plantedCut returns the weight of the cut between vertices [0,n) and
// [n,2n).
func plantedCut(g *graph.Graph) int64 {
	n := int32(g.N() / 2)
	var cut int64
	g.Edges(func(u, v, w int32) {
		if (u < n) != (v < n) {
			cut += int64(w)
		}
	})
	return cut
}

func TestTwoSetPlantedCut(t *testing.T) {
	r := rng.NewFib(11)
	for _, bis := range []int{0, 1, 16, 100} {
		g, err := TwoSet(400, 0.01, 0.01, bis, r)
		if err != nil {
			t.Fatal(err)
		}
		unitWeights(t, g)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := plantedCut(g); got != int64(bis) {
			t.Fatalf("bis=%d: planted cut %d", bis, got)
		}
	}
}

func TestTwoSetErrors(t *testing.T) {
	r := rng.NewFib(1)
	if _, err := TwoSet(7, 0.1, 0.1, 0, r); err == nil {
		t.Fatal("odd vertex count accepted")
	}
	if _, err := TwoSet(10, -0.1, 0.1, 0, r); err == nil {
		t.Fatal("negative pA accepted")
	}
	if _, err := TwoSet(10, 0.1, 2, 0, r); err == nil {
		t.Fatal("pB>1 accepted")
	}
	if _, err := TwoSet(10, 0.1, 0.1, 26, r); err == nil {
		t.Fatal("bis>n² accepted")
	}
	if _, err := TwoSet(10, 0.1, 0.1, -1, r); err == nil {
		t.Fatal("negative bis accepted")
	}
}

func TestTwoSetForAvgDegree(t *testing.T) {
	const twoN = 2000
	const bis = 32
	const want = 3.0
	p, err := TwoSetForAvgDegree(twoN, want, bis)
	if err != nil {
		t.Fatal(err)
	}
	// Average the measured degree over a few samples.
	sum := 0.0
	const samples = 5
	r := rng.NewFib(5)
	for i := 0; i < samples; i++ {
		g, err := TwoSet(twoN, p, p, bis, r)
		if err != nil {
			t.Fatal(err)
		}
		unitWeights(t, g)
		sum += g.AvgDegree()
	}
	if got := sum / samples; math.Abs(got-want) > 0.15 {
		t.Fatalf("avg degree %.3f, want ~%.1f", got, want)
	}
}

func TestTwoSetForAvgDegreeErrors(t *testing.T) {
	if _, err := TwoSetForAvgDegree(2, 3, 0); err == nil {
		t.Fatal("tiny graph accepted")
	}
	if _, err := TwoSetForAvgDegree(100, 0.1, 1000); err == nil {
		t.Fatal("bis exceeding degree budget accepted")
	}
	if _, err := TwoSetForAvgDegree(4, 10, 0); err == nil {
		t.Fatal("unreachable degree accepted")
	}
}

func TestBRegIsRegularWithPlantedCut(t *testing.T) {
	r := rng.NewFib(21)
	cases := []struct{ twoN, b, d int }{
		{200, 4, 3},
		{200, 8, 4},
		{500, 10, 3}, // n=250, n*d-b = 740 even
		{100, 2, 4},
		{60, 0, 4},
	}
	for _, tc := range cases {
		g, err := BReg(tc.twoN, tc.b, tc.d, r)
		if err != nil {
			t.Fatalf("BReg(%d,%d,%d): %v", tc.twoN, tc.b, tc.d, err)
		}
		unitWeights(t, g)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !g.IsRegular(tc.d) {
			t.Fatalf("BReg(%d,%d,%d) not %d-regular; degree counts %v", tc.twoN, tc.b, tc.d, tc.d, degreeCounts(g))
		}
		if got := plantedCut(g); got != int64(tc.b) {
			t.Fatalf("BReg(%d,%d,%d): planted cut %d", tc.twoN, tc.b, tc.d, got)
		}
	}
}

func TestBRegDegreeTwoIsCycles(t *testing.T) {
	// The paper notes degree-2 𝒢breg graphs are collections of chordless
	// cycles (here: plus the planted cross matching, so every vertex still
	// has degree exactly 2).
	r := rng.NewFib(4)
	g, err := BReg(100, 2, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if !g.IsRegular(2) {
		t.Fatal("degree-2 BReg is not 2-regular")
	}
}

func TestBRegErrors(t *testing.T) {
	r := rng.NewFib(1)
	if _, err := BReg(11, 2, 3, r); err == nil {
		t.Fatal("odd vertex count accepted")
	}
	if _, err := BReg(20, 2, 10, r); err == nil {
		t.Fatal("d >= n accepted")
	}
	if _, err := BReg(20, 11, 3, r); err == nil {
		t.Fatal("b > n accepted")
	}
	if _, err := BReg(20, -1, 3, r); err == nil {
		t.Fatal("negative b accepted")
	}
	// Parity violation: n=10, d=3, b=1 -> n*d-b = 29 odd.
	if _, err := BReg(20, 1, 3, r); err == nil {
		t.Fatal("odd parity accepted")
	}
	if _, err := BReg(20, 2, 0, r); err == nil {
		t.Fatal("b>0 with d=0 accepted")
	}
}

func TestBRegDeterministic(t *testing.T) {
	a, err := BReg(200, 4, 3, rng.NewFib(9))
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, a)
	b, err := BReg(200, 4, 3, rng.NewFib(9))
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, b)
	same := true
	a.Edges(func(u, v, w int32) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	if !same || a.M() != b.M() {
		t.Fatal("same seed produced different BReg graphs")
	}
}

func TestRandomRegular(t *testing.T) {
	r := rng.NewFib(31)
	for _, tc := range []struct{ n, d int }{{50, 3}, {51, 4}, {100, 5}, {10, 0}} {
		if tc.n*tc.d%2 != 0 {
			continue
		}
		g, err := RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		unitWeights(t, g)
		if !g.IsRegular(tc.d) {
			t.Fatalf("RandomRegular(%d,%d) not regular", tc.n, tc.d)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Fatal("odd degree sum accepted")
	}
	if _, err := RandomRegular(4, 4, r); err == nil {
		t.Fatal("d >= n accepted")
	}
}

// oversizeCase is a generator call that must be refused as too large.
type oversizeCase struct {
	name string
	gen  func() (*graph.Graph, error)
}

// requireRefusedBeforeAlloc runs each case and requires an error wrapping
// graph.ErrTooLarge, returned before any stub, degree or edge array is
// allocated: only the error itself is.
func requireRefusedBeforeAlloc(t *testing.T, cases []oversizeCase) {
	t.Helper()
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := tc.gen()
		runtime.ReadMemStats(&after)
		if g != nil || !errors.Is(err, graph.ErrTooLarge) {
			t.Fatalf("%s: got %v, %v; want an error wrapping graph.ErrTooLarge", tc.name, g, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<16 {
			t.Fatalf("%s: allocated %d bytes before refusing", tc.name, b)
		}
	}
}

func TestOversizeRegularGraphsRefused(t *testing.T) {
	r := rng.NewFib(1)
	requireRefusedBeforeAlloc(t, []oversizeCase{
		// n·d/2 = 2.5·10⁹ edges.
		{"RandomRegular(1e5, 5e4)", func() (*graph.Graph, error) { return RandomRegular(100_000, 50_000, r) }},
		// n·d = 1.6·10⁹ edges, though each half's 8.2·10⁸ is under the cap.
		{"BReg(2e5, 0, 16384)", func() (*graph.Graph, error) { return BReg(200_000, 0, 16384, r) }},
		{"RandomRegular over MaxVertices", func() (*graph.Graph, error) { return RandomRegular(graph.MaxVertices+2, 2, r) }},
		{"BReg over MaxVertices", func() (*graph.Graph, error) { return BReg(graph.MaxVertices+2, 0, 2, r) }},
	})
}

// GNP and TwoSet draw their edge count at random, so they are refused on
// its expectation.
func TestOversizeRandomGraphsRefused(t *testing.T) {
	r := rng.NewFib(1)
	requireRefusedBeforeAlloc(t, []oversizeCase{
		// C(10⁵, 2) ≈ 5.0·10⁹ edges.
		{"GNP(1e5, 1)", func() (*graph.Graph, error) { return GNP(100_000, 1, r) }},
		// 0.25·C(10⁵, 2) ≈ 1.25·10⁹ expected edges.
		{"GNP(1e5, 0.25)", func() (*graph.Graph, error) { return GNP(100_000, 0.25, r) }},
		// 2·0.15·C(10⁵, 2) ≈ 1.5·10⁹ expected edges, though each side's
		// 7.5·10⁸ is under the cap.
		{"TwoSet(2e5, 0.15, 0.15, 0)", func() (*graph.Graph, error) { return TwoSet(200_000, 0.15, 0.15, 0, r) }},
		// The bis cross edges alone exceed the cap.
		{"TwoSet(2e5, 0, 0, 2^30)", func() (*graph.Graph, error) { return TwoSet(200_000, 0, 0, 1<<30, r) }},
		{"GNP over MaxVertices", func() (*graph.Graph, error) { return GNP(graph.MaxVertices+1, 0, r) }},
		{"TwoSet over MaxVertices", func() (*graph.Graph, error) { return TwoSet(graph.MaxVertices+2, 0, 0, 0, r) }},
	})
}

func TestConfigurationModelErrors(t *testing.T) {
	r := rng.NewFib(1)
	if _, err := configurationModel([]int{-1, 1}, r); err == nil {
		t.Fatal("negative degree accepted")
	}
	if _, err := configurationModel([]int{3, 1}, r); err == nil {
		t.Fatal("degree >= n accepted")
	}
	if _, err := configurationModel([]int{1, 1, 1}, r); err == nil {
		t.Fatal("odd sum accepted")
	}
	edges, err := configurationModel([]int{0, 0}, r)
	if err != nil || len(edges) != 0 {
		t.Fatalf("zero-degree case: %v, %v", edges, err)
	}
}

func TestPathAndCycle(t *testing.T) {
	p, err := Path(5)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, p)
	if p.N() != 5 || p.M() != 4 || !connected(p) {
		t.Fatalf("Path(5): n=%d m=%d", p.N(), p.M())
	}
	c, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, c)
	if c.N() != 6 || c.M() != 6 || !c.IsRegular(2) {
		t.Fatalf("Cycle(6): n=%d m=%d", c.N(), c.M())
	}
	if _, err := Cycle(2); err == nil {
		t.Fatal("Cycle(2) accepted")
	}
	if _, err := Path(-1); err == nil {
		t.Fatal("Path(-1) accepted")
	}
}

func TestCycleCollection(t *testing.T) {
	g, err := CycleCollection([]int{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 12 || g.M() != 12 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.IsRegular(2) {
		t.Fatal("cycle collection not 2-regular")
	}
	sizes := g.ComponentSizes()
	if len(sizes) != 3 {
		t.Fatalf("components: %v", sizes)
	}
	if _, err := CycleCollection([]int{2}); err == nil {
		t.Fatal("2-cycle accepted")
	}
}

func TestLadderShape(t *testing.T) {
	// This is the structural check for Figure 3 (the ladder example).
	g, err := Ladder(10)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 20 || g.M() != 10+2*9 {
		t.Fatalf("Ladder(10): n=%d m=%d", g.N(), g.M())
	}
	if !connected(g) {
		t.Fatal("ladder disconnected")
	}
	// Corner vertices have degree 2, interior rail vertices degree 3.
	h := degreeCounts(g)
	if h[2] != 4 || h[3] != 16 {
		t.Fatalf("ladder degree histogram %v", h)
	}
	if _, err := Ladder(0); err == nil {
		t.Fatal("Ladder(0) accepted")
	}
}

func TestLadder3N(t *testing.T) {
	g, err := Ladder3N(10)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 30 {
		t.Fatalf("Ladder3N(10): n=%d", g.N())
	}
	// Edges: 2 per rung (a-m, m-b) ×10 + 2 rails ×9.
	if g.M() != 20+18 {
		t.Fatalf("Ladder3N(10): m=%d", g.M())
	}
	if !connected(g) {
		t.Fatal("Ladder3N disconnected")
	}
	// Midpoints all have degree 2.
	for i := 0; i < 10; i++ {
		if d := g.Degree(int32(3*i + 2)); d != 2 {
			t.Fatalf("midpoint %d has degree %d", i, d)
		}
	}
	if _, err := Ladder3N(0); err == nil {
		t.Fatal("Ladder3N(0) accepted")
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 24 {
		t.Fatalf("n=%d", g.N())
	}
	// Edges: 4*5 horizontal + 3*6 vertical = 38.
	if g.M() != 38 {
		t.Fatalf("m=%d", g.M())
	}
	if !connected(g) {
		t.Fatal("grid disconnected")
	}
	if _, err := Grid(-1, 3); err == nil {
		t.Fatal("negative dimension accepted")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g, err := CompleteBinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 15 || g.M() != 14 || !connected(g) {
		t.Fatalf("tree: n=%d m=%d", g.N(), g.M())
	}
	// Root has degree 2; leaves degree 1.
	if g.Degree(0) != 2 {
		t.Fatalf("root degree %d", g.Degree(0))
	}
	h := degreeCounts(g)
	if h[1] != 8 {
		t.Fatalf("leaf count %d, want 8", h[1])
	}
	if _, err := CompleteBinaryTree(-1); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestHypercube(t *testing.T) {
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 16 || !g.IsRegular(4) || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.N(), g.M())
	}
	if _, err := Hypercube(-1); err == nil {
		t.Fatal("negative dim accepted")
	}
	if _, err := Hypercube(21); err == nil {
		t.Fatal("huge dim accepted")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g, err := CompleteBipartite(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K34: n=%d m=%d", g.N(), g.M())
	}
	// Every edge joins side {0,1,2} to side {3,…,6}, so no triangle
	// exists.
	g.Edges(func(u, v int32, _ int32) {
		if (u < 3) == (v < 3) {
			t.Fatalf("edge %d–%d lies inside one side", u, v)
		}
	})
	if _, err := CompleteBipartite(-1, 2); err == nil {
		t.Fatal("negative side accepted")
	}
}

func TestCaterpillar(t *testing.T) {
	g, err := Caterpillar(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 20 || g.M() != 19 || !connected(g) {
		t.Fatalf("caterpillar: n=%d m=%d", g.N(), g.M())
	}
	if _, err := Caterpillar(0, 1); err == nil {
		t.Fatal("empty spine accepted")
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	unitWeights(t, g)
	if g.N() != 6 || g.M() != 15 || !g.IsRegular(5) {
		t.Fatalf("K6: n=%d m=%d", g.N(), g.M())
	}
	if _, err := Complete(-2); err == nil {
		t.Fatal("negative n accepted")
	}
}

func BenchmarkGNP5000(b *testing.B) {
	r := rng.NewFib(1)
	p, _ := TwoSetForAvgDegree(5000, 3, 0)
	for i := 0; i < b.N; i++ {
		if _, err := GNP(5000, p, r); err != nil {
			b.Fatal(err)
		}
	}
}

// bregSeeds is the fixed ensemble the BReg benchmarks generate. Each op
// builds one instance per seed, every one from a fresh stream, so an op
// always does the same work (the same rejected attempts) whatever b.N
// is; ns/graph is the ensemble's mean per instance.
var bregSeeds = []uint64{1, 2, 3, 4, 5, 6}

func benchmarkBReg(b *testing.B, twoN, width, d int) {
	for i := 0; i < b.N; i++ {
		for _, seed := range bregSeeds {
			if _, err := BReg(twoN, width, d, rng.NewFib(seed)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bregSeeds)), "ns/graph")
}

func BenchmarkBReg5000D3(b *testing.B) { benchmarkBReg(b, 5000, 16, 3) }

// BenchmarkBReg1e6D3 generates ml1m_t1's family, Gbreg(10⁶, 1000, 3).
func BenchmarkBReg1e6D3(b *testing.B) { benchmarkBReg(b, 1_000_000, 1000, 3) }
