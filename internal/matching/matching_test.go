package matching

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// largeGraph is a Gbreg(40000, 64, 3) instance. It has more than 2¹⁵
// vertices, like the finer levels of a multilevel run, so the validity
// tests cover that size as well as the small quick-check graphs.
func largeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BReg(40000, 64, 3, rng.NewFib(15))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRandomMaximalIsValidAndMaximal(t *testing.T) {
	g := largeGraph(t)
	mate := RandomMaximal(g, rng.NewFib(16))
	if err := Validate(g, mate); err != nil {
		t.Fatal(err)
	}
	if !IsMaximal(g, mate) {
		t.Fatal("matching of the large graph is not maximal")
	}
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 + r.Intn(50)
		g, err := gen.GNP(n, 0.15, r)
		if err != nil {
			return false
		}
		mate := RandomMaximal(g, r)
		return Validate(g, mate) == nil && IsMaximal(g, mate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMaximalOnEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	mate := RandomMaximal(g, rng.NewFib(1))
	if Size(mate) != 0 {
		t.Fatalf("matched %d edges in empty graph", Size(mate))
	}
	if err := Validate(g, mate); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMaximalPerfectOnEvenCycle(t *testing.T) {
	// A maximal matching of C_2k has between k/ (rounded) and k edges; on
	// many seeds we should regularly see near-perfect sizes, and always at
	// least ⌈k/2⌉ + ... — at minimum maximality forbids two adjacent
	// unmatched vertices, so size ≥ n/4 always. Check the invariant bound.
	g := mustGraph(gen.Cycle(40))
	for seed := uint64(0); seed < 20; seed++ {
		mate := RandomMaximal(g, rng.NewFib(seed))
		if s := Size(mate); s < 10 || s > 20 {
			t.Fatalf("seed %d: matching size %d outside [10,20]", seed, s)
		}
	}
}

func TestRandomMaximalCoversHighDegreeGraphs(t *testing.T) {
	// K_n has a perfect matching for even n; greedy maximal on K_n is
	// always perfect (every unmatched vertex sees an unmatched neighbor).
	g := mustGraph(gen.Complete(12))
	mate := RandomMaximal(g, rng.NewFib(3))
	if Size(mate) != 6 {
		t.Fatalf("K12 greedy matching size %d, want 6", Size(mate))
	}
}

func TestRandomMaximalIsRandom(t *testing.T) {
	g := mustGraph(gen.Grid(8, 8))
	r := rng.NewFib(7)
	a := RandomMaximal(g, r)
	b := RandomMaximal(g, r)
	diff := false
	for v := range a {
		if a[v] != b[v] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("two random maximal matchings are identical")
	}
}

func TestHeavyEdgePrefersHeavyEdges(t *testing.T) {
	// Triangle-free weighted graph: 0-1 (w=10), 1-2 (w=1), 2-3 (w=10).
	b := graph.NewBuilder(4)
	b.AddWeightedEdge(0, 1, 10)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 3, 10)
	g := b.MustBuild()
	for seed := uint64(0); seed < 10; seed++ {
		mate := HeavyEdge(g, rng.NewFib(seed))
		if err := Validate(g, mate); err != nil {
			t.Fatal(err)
		}
		// Whatever order vertices are visited, the heavy edges win.
		if mate[0] != 1 || mate[2] != 3 {
			t.Fatalf("seed %d: heavy-edge matching chose %v", seed, mate)
		}
	}
}

func TestHeavyEdgeIsValidAndMaximal(t *testing.T) {
	g := largeGraph(t)
	mate := HeavyEdge(g, rng.NewFib(17))
	if err := Validate(g, mate); err != nil {
		t.Fatal(err)
	}
	if !IsMaximal(g, mate) {
		t.Fatal("matching of the large graph is not maximal")
	}
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 + r.Intn(40)
		g, err := gen.GNP(n, 0.2, r)
		if err != nil {
			return false
		}
		mate := HeavyEdge(g, r)
		return Validate(g, mate) == nil && IsMaximal(g, mate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAugment3GrowsMatching(t *testing.T) {
	// Path 0-1-2-3 with only the middle edge matched has a length-3
	// augmenting path; Augment3 must find it and produce a perfect
	// matching.
	g := mustGraph(gen.Path(4))
	mate := []int32{-1, 2, 1, -1}
	r := rng.NewFib(1)
	n := Augment3(g, mate, r)
	if n != 1 {
		t.Fatalf("augmentations = %d, want 1", n)
	}
	if Size(mate) != 2 {
		t.Fatalf("size after augment = %d, want 2", Size(mate))
	}
	if err := Validate(g, mate); err != nil {
		t.Fatal(err)
	}
}

func TestAugment3NeverShrinks(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 + r.Intn(40)
		g, err := gen.GNP(n, 0.15, r)
		if err != nil {
			return false
		}
		mate := RandomMaximal(g, r)
		before := Size(mate)
		aug := Augment3(g, mate, r)
		if Validate(g, mate) != nil {
			return false
		}
		return Size(mate) == before+aug
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAugment3DirectAugmentation(t *testing.T) {
	// Empty matching on a single edge: Augment3's length-1 case.
	g := mustGraph(gen.Path(2))
	mate := []int32{-1, -1}
	if got := Augment3(g, mate, rng.NewFib(2)); got != 1 {
		t.Fatalf("augmentations = %d, want 1", got)
	}
	if Size(mate) != 1 {
		t.Fatal("edge not matched")
	}
}

func TestAugment3PanicsOnBadMate(t *testing.T) {
	g := mustGraph(gen.Path(3))
	defer func() {
		if recover() == nil {
			t.Fatal("short mate array not rejected")
		}
	}()
	Augment3(g, []int32{-1}, rng.NewFib(1))
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustGraph(gen.Path(4))
	if err := Validate(g, []int32{-1, -1}); err == nil {
		t.Fatal("wrong length accepted")
	}
	if err := Validate(g, []int32{0, -1, -1, -1}); err == nil {
		t.Fatal("self-match accepted")
	}
	if err := Validate(g, []int32{1, 2, 1, -1}); err == nil {
		t.Fatal("non-involutive mate accepted")
	}
	if err := Validate(g, []int32{2, -1, 0, -1}); err == nil {
		t.Fatal("non-edge pair accepted")
	}
	if err := Validate(g, []int32{9, -1, -1, -1}); err == nil {
		t.Fatal("out-of-range mate accepted")
	}
	if err := Validate(g, []int32{1, 0, 3, 2}); err != nil {
		t.Fatalf("valid perfect matching rejected: %v", err)
	}
}

func TestEdgesListsEachPairOnce(t *testing.T) {
	g := mustGraph(gen.Cycle(8))
	mate := RandomMaximal(g, rng.NewFib(5))
	pairs := Edges(mate)
	if len(pairs) != Size(mate) {
		t.Fatalf("Edges returned %d pairs for size %d", len(pairs), Size(mate))
	}
	for _, p := range pairs {
		if p[0] >= p[1] {
			t.Fatalf("pair %v not ordered", p)
		}
		if mate[p[0]] != p[1] {
			t.Fatalf("pair %v not matched", p)
		}
	}
}

func TestMatchingOnSparsePaperGraphs(t *testing.T) {
	// On a degree-3 regular graph a random maximal matching should leave
	// only a small fraction unmatched; the compaction heuristic depends on
	// this to raise the average degree meaningfully.
	r := rng.NewFib(12)
	g, err := gen.BReg(500, 10, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	mate := RandomMaximal(g, r)
	if !IsMaximal(g, mate) {
		t.Fatal("matching not maximal")
	}
	if s := Size(mate); s < 150 {
		t.Fatalf("matching size %d suspiciously small for 500 vertices of degree 3", s)
	}
}

func BenchmarkRandomMaximal5000(b *testing.B) {
	r := rng.NewFib(1)
	g, err := gen.BReg(5000, 16, 3, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomMaximal(g, r)
	}
}
