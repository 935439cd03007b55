package fm

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// lowerGates drops the parallel thresholds so small instances exercise
// every sharded pass kernel, restoring them when the test ends.
func lowerGates(t *testing.T) {
	t.Helper()
	savedV, savedD := ParallelMinVertices, ParallelMinDegree
	ParallelMinVertices = 1
	ParallelMinDegree = 1
	t.Cleanup(func() { ParallelMinVertices, ParallelMinDegree = savedV, savedD })
}

// weightedGraph returns a GNP instance with pseudo-random vertex weights
// in [1,4], so the weighted selection path (and with it the parallel
// move proposal) engages.
func weightedGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.GNP(n, 8.0/float64(n-1), rng.NewFib(seed))
	if err != nil {
		t.Fatal(err)
	}
	bld := graph.NewBuilder(n)
	r := rng.NewFib(seed + 1)
	for v := int32(0); int(v) < n; v++ {
		bld.SetVertexWeight(v, int32(1+r.Intn(4)))
	}
	g.Edges(func(u, v, w int32) { bld.AddWeightedEdge(u, v, w) })
	wg, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

// refineSides runs Refine under opts on a fixed starting bisection and
// returns the resulting sides and stats.
func refineSides(t *testing.T, g *graph.Graph, opts Options) ([]uint8, Stats) {
	t.Helper()
	b := partition.NewRandom(g, rng.NewFib(43))
	if opts.Workspace != nil {
		defer opts.Workspace.Close()
	}
	st, err := Refine(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b.Sides(), st
}

// TestShardedPassIdentity pins the full sharded pass body — parallel
// init, sharded gain updates/repositions, parallel move proposal — to
// the serial reference on both unit-weight and weighted graphs, at
// several pool degrees.
func TestShardedPassIdentity(t *testing.T) {
	lowerGates(t)
	for name, g := range map[string]*graph.Graph{
		"unit": func() *graph.Graph {
			g, err := gen.GNP(900, 10.0/899, rng.NewFib(5))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}(),
		"weighted": weightedGraph(t, 900, 11),
	} {
		refSides, refStats := refineSides(t, g, Options{})
		for _, degree := range []int{2, 3, 4, 8} {
			sides, stats := refineSides(t, g, Options{ParallelDegree: degree, Workspace: NewRefiner()})
			if stats != refStats {
				t.Fatalf("%s degree %d: stats %+v, want %+v", name, degree, stats, refStats)
			}
			for v := range sides {
				if sides[v] != refSides[v] {
					t.Fatalf("%s degree %d: side of vertex %d differs", name, degree, v)
				}
			}
		}
	}
}

// TestShardedPassSteadyAllocs pins the zero-allocation contract of the
// sharded gain-update and move-proposal kernels: once a Refiner has
// warmed up on a graph, parallel passes allocate nothing.
func TestShardedPassSteadyAllocs(t *testing.T) {
	lowerGates(t)
	g := weightedGraph(t, 600, 17)
	b := partition.NewRandom(g, rng.NewFib(3))
	w := NewRefiner()
	defer w.Close()
	opts := Options{ParallelDegree: 4, Workspace: w}
	if _, _, err := w.Pass(b, opts); err != nil {
		t.Fatal(err) // warm-up sizes the workspace and binds the closures
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := w.Pass(b, opts); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sharded FM pass allocated %.1f times per run, want 0", allocs)
	}
}
