package spectral

import (
	"math"
	"testing"

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

func TestFiedlerIsZeroMeanUnit(t *testing.T) {
	g := mustGraph(gen.Grid(6, 6))
	f, err := Fiedler(g, Options{}, rng.NewFib(1))
	if err != nil {
		t.Fatal(err)
	}
	var mean, nrm float64
	for _, v := range f {
		mean += v
		nrm += float64(v * v)
	}
	mean /= float64(len(f))
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("mean %g not ~0", mean)
	}
	if math.Abs(math.Sqrt(nrm)-1) > 1e-9 {
		t.Fatalf("norm %g not ~1", math.Sqrt(nrm))
	}
}

func TestFiedlerOnPathIsMonotone(t *testing.T) {
	// The Fiedler vector of a path is cos(π k (i+1/2)/n), monotone in i.
	g := mustGraph(gen.Path(20))
	f, err := Fiedler(g, Options{MaxIters: 5000, Tol: 1e-12}, rng.NewFib(2))
	if err != nil {
		t.Fatal(err)
	}
	// Orient so f[0] < f[last].
	if f[0] > f[len(f)-1] {
		for i := range f {
			f[i] = -f[i]
		}
	}
	for i := 1; i < len(f); i++ {
		if f[i] < f[i-1]-1e-6 {
			t.Fatalf("Fiedler vector of a path not monotone at %d: %v", i, f)
		}
	}
}

func TestFiedlerErrorsOnEmptyGraph(t *testing.T) {
	if _, err := Fiedler(graph.NewBuilder(0).MustBuild(), Options{}, rng.NewFib(1)); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestFiedlerEdgelessGraphDoesNotCrash(t *testing.T) {
	g := graph.NewBuilder(6).MustBuild()
	if _, err := Fiedler(g, Options{MaxIters: 10}, rng.NewFib(3)); err != nil {
		t.Fatal(err)
	}
}

func TestBisectBalancedAndGood(t *testing.T) {
	// Spectral bisection of an even path must be near-optimal (optimal is
	// 1, the middle edge).
	g := mustGraph(gen.Path(40))
	b, err := Bisect(g, Options{MaxIters: 5000, Tol: 1e-12}, rng.NewFib(5))
	if err != nil {
		t.Fatal(err)
	}
	if n0, n1 := b.CountSides(); n0 != 20 || n1 != 20 {
		t.Fatalf("sides %d/%d", n0, n1)
	}
	if b.Cut() != 1 {
		t.Fatalf("spectral cut of a path = %d, want 1", b.Cut())
	}
}

func TestBisectGrid(t *testing.T) {
	// 8x8 grid: optimal bisection 8; spectral should be at or near it.
	g := mustGraph(gen.Grid(8, 8))
	b, err := Bisect(g, Options{MaxIters: 5000, Tol: 1e-12}, rng.NewFib(6))
	if err != nil {
		t.Fatal(err)
	}
	if b.Imbalance() != 0 {
		t.Fatalf("imbalance %d", b.Imbalance())
	}
	if b.Cut() > 12 {
		t.Fatalf("spectral grid cut %d too far above optimal 8", b.Cut())
	}
}

func TestBisectPlantedModel(t *testing.T) {
	// On a planted-bisection graph with a pronounced community structure,
	// spectral bisection should land well below a random cut.
	r := rng.NewFib(9)
	g, err := gen.TwoSet(200, 0.08, 0.08, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bisect(g, Options{}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Random balanced cut expectation is ~ m/2.
	if b.Cut() >= int64(g.M())/2 {
		t.Fatalf("spectral cut %d no better than random (~%d)", b.Cut(), g.M()/2)
	}
}

func TestBisectDeterministicGivenSeed(t *testing.T) {
	g := mustGraph(gen.Grid(6, 6))
	a, err := Bisect(g, Options{}, rng.NewFib(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bisect(g, Options{}, rng.NewFib(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut() != b.Cut() {
		t.Fatalf("same seed, different cuts %d/%d", a.Cut(), b.Cut())
	}
}

func BenchmarkFiedlerGrid32(b *testing.B) {
	g := mustGraph(gen.Grid(32, 32))
	r := rng.NewFib(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fiedler(g, Options{MaxIters: 200}, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLanczosBReg100000 times Lanczos Fiedler solves on a
// planted-bisection Gbreg(100000, 10000, 4) instance, with the basis
// sized so the solve converges without a restart. It carries on the
// scale_spectral_lanczos_breg100000v row of BENCH_8.json, whose metric
// was the matvec count.
func BenchmarkLanczosBReg100000(b *testing.B) {
	g := mustGraph(gen.BReg(100_000, 10_000, 4, rng.NewFib(42)))
	benchmarkFiedler(b, g, Options{MaxBasis: 48, MaxIters: 20_000}, -1)
}

// BenchmarkLanczosGrid500x200 times Fiedler solves of a 500×200 grid,
// the small-spectral-gap regime where Lanczos must grind to the true
// Fiedler vector, and fails unless the median split is the optimal
// 200-edge one. One solve takes 35–50 s on a 2-vCPU host, which is why
// this check is a benchmark and not a test. It carries on the
// scale_spectral_lanczos_grid500x200 row of BENCH_8.json.
func BenchmarkLanczosGrid500x200(b *testing.B) {
	g := mustGraph(gen.Grid(500, 200))
	benchmarkFiedler(b, g, Options{MaxIters: 20_000}, 200)
}

// benchmarkFiedler times Fiedler solves of g on one reused workspace
// (TestFiedlerSteadyAllocs gates its allocations), each from the same
// start vector, so every solve is the same and matvecs/op is exact. A
// nonnegative wantCut fails any median split that cuts a different
// number of edges; the split is not timed.
func benchmarkFiedler(b *testing.B, g *graph.Graph, opts Options, wantCut int64) {
	var st Stats
	opts.Workspace = NewWorkspace()
	opts.Stats = &st
	r := rng.NewFib(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seed(7)
		f, err := Fiedler(g, opts, r)
		if err != nil {
			b.Fatal(err)
		}
		if wantCut >= 0 {
			b.StopTimer()
			p, err := medianSplit(g, f)
			if err != nil {
				b.Fatal(err)
			}
			if p.Cut() != wantCut {
				b.Fatalf("median split cuts %d edges, want the optimal %d", p.Cut(), wantCut)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(st.MatVecs), "matvecs/op")
}
