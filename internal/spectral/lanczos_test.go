package spectral

import (
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/spectral_golden.json from the current implementation")

// spectralGoldenCase is one instance pinned by the spectral fixture,
// spanning the families the harness benchmarks: sparse GNP, planted
// regular, and the two structured graphs with known Fiedler vectors.
type spectralGoldenCase struct {
	Name string
	g    *graph.Graph
	seed uint64
}

// spectralGoldenRecord reduces one case to everything the solver
// determines: the matvec count (deterministic given the seed), the λ₂
// estimate, and the cut and side assignment of the median split.
type spectralGoldenRecord struct {
	Name      string  `json:"name"`
	MatVecs   int     `json:"matvecs"`
	Lambda2   string  `json:"lambda2"`
	Cut       int64   `json:"cut"`
	SidesHash uint64  `json:"sides_hash"`
	Residual  float64 `json:"-"`
}

func spectralGoldenCases() []spectralGoldenCase {
	mk := func(name string, g *graph.Graph, err error, seed uint64) spectralGoldenCase {
		if err != nil {
			panic(err)
		}
		return spectralGoldenCase{Name: name, g: g, seed: seed}
	}
	gnp, gnpErr := gen.GNP(400, 4.0/399.0, rng.NewFib(51))
	breg, bregErr := gen.BReg(200, 6, 4, rng.NewFib(53))
	path, pathErr := gen.Path(64)
	grid, gridErr := gen.Grid(16, 16)
	return []spectralGoldenCase{
		mk("gnp400_d4", gnp, gnpErr, 61),
		mk("breg200_b6_d4", breg, bregErr, 63),
		mk("path64", path, pathErr, 65),
		mk("grid16x16", grid, gridErr, 67),
	}
}

func runSpectralGoldenCase(c spectralGoldenCase) (spectralGoldenRecord, error) {
	rec := spectralGoldenRecord{Name: c.Name}
	var st Stats
	opts := Options{Tol: 1e-10, Stats: &st}
	f, err := Fiedler(c.g, opts, rng.NewFib(c.seed))
	if err != nil {
		return rec, err
	}
	rec.MatVecs = st.MatVecs
	// λ₂ via the Rayleigh quotient, formatted so the JSON fixture pins
	// the exact float64 bits.
	rec.Lambda2 = strconv17(rayleigh(c.g, f))
	b, err := Bisect(c.g, opts, rng.NewFib(c.seed))
	if err != nil {
		return rec, err
	}
	rec.Cut = b.Cut()
	h := fnv.New64a()
	h.Write(b.SidesRef())
	rec.SidesHash = h.Sum64()
	return rec, nil
}

// strconv17 formats a float64 with enough digits to round-trip exactly.
func strconv17(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestGoldenSpectral pins the Lanczos solver — matvec count, λ₂
// estimate, cut, and side assignment — to a committed fixture on
// Gnp/Gbreg/path/grid instances.
func TestGoldenSpectral(t *testing.T) {
	path := filepath.Join("testdata", "spectral_golden.json")
	if *updateGolden {
		var recs []spectralGoldenRecord
		for _, c := range spectralGoldenCases() {
			r, err := runSpectralGoldenCase(c)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []spectralGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cases := spectralGoldenCases()
	if len(want) != len(cases) {
		t.Fatalf("fixture has %d records for %d cases; rerun with -update", len(want), len(cases))
	}
	for i, c := range cases {
		got, err := runSpectralGoldenCase(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", c.Name, got, want[i])
		}
	}
}

// TestLanczosPowerEquivalence drives Lanczos and the power-iteration
// oracle to a tight tolerance on a connected planted-regular instance:
// both must identify the same median split (up to the Fiedler vector's
// global sign, which flips both sides).
func TestLanczosPowerEquivalence(t *testing.T) {
	g := mustGraph(gen.BReg(400, 6, 4, rng.NewFib(71)))
	opts := Options{Tol: 1e-12, MaxIters: 100000}
	lb, err := Bisect(g, opts, rng.NewFib(73))
	if err != nil {
		t.Fatalf("lanczos: %v", err)
	}
	pf, err := NewWorkspace().powerFiedler(g, opts, rng.NewFib(73))
	if err != nil {
		t.Fatalf("power: %v", err)
	}
	pb, err := medianSplit(g, pf)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Cut() != pb.Cut() {
		t.Fatalf("cuts differ: lanczos %d, power %d", lb.Cut(), pb.Cut())
	}
	ls, ps := lb.SidesRef(), pb.SidesRef()
	same, flipped := true, true
	for i := range ls {
		if ls[i] != ps[i] {
			same = false
		}
		if ls[i] == ps[i] {
			flipped = false
		}
	}
	if !same && !flipped {
		t.Fatal("lanczos and power converged to different splits")
	}
}

// TestLanczosFewerMatVecs quantifies Lanczos's advantage on a mid-size
// instance: at matching accuracy it must reach convergence in at least
// 5× fewer matvecs than the power-iteration oracle (BENCH_8 pins the
// same ratio at 10^5 vertices).
func TestLanczosFewerMatVecs(t *testing.T) {
	g := mustGraph(gen.GNP(10000, 4.0/9999.0, rng.NewFib(75)))
	var sl, sp Stats
	if _, err := Fiedler(g, Options{Tol: 1e-8, MaxIters: 200000, Stats: &sl}, rng.NewFib(77)); err != nil {
		t.Fatalf("lanczos: %v", err)
	}
	if _, err := NewWorkspace().powerFiedler(g, Options{Tol: 1e-8, MaxIters: 200000, Stats: &sp}, rng.NewFib(77)); err != nil {
		t.Fatalf("power: %v", err)
	}
	if !sl.Converged || !sp.Converged {
		t.Fatalf("not converged: lanczos %+v power %+v", sl, sp)
	}
	if sl.MatVecs*5 > sp.MatVecs {
		t.Fatalf("lanczos %d matvecs vs power %d: want ≥5× fewer", sl.MatVecs, sp.MatVecs)
	}
}

// TestFiedlerNotConverged pins the typed error contract: an exhausted
// matvec budget returns *ErrNotConverged together with a usable vector,
// and Bisect/Lambda2/BisectionLowerBound pass both through.
func TestFiedlerNotConverged(t *testing.T) {
	g := mustGraph(gen.Grid(16, 16))
	opts := Options{Tol: 1e-14, MaxIters: 2}
	f, err := Fiedler(g, opts, rng.NewFib(81))
	if !IsNotConverged(err) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	var nc *ErrNotConverged
	if !asNotConverged(err, &nc) || nc.MatVecs < 1 || nc.Residual <= nc.Tol {
		t.Fatalf("bad error payload: %+v", err)
	}
	if len(f) != g.N() {
		t.Fatalf("no usable vector alongside the error (len %d)", len(f))
	}
	b, err := Bisect(g, opts, rng.NewFib(81))
	if !IsNotConverged(err) || b == nil {
		t.Fatalf("Bisect: want bisection + ErrNotConverged, got %v / %v", b, err)
	}
	if n0, n1 := b.CountSides(); n0 != n1 {
		t.Fatalf("unbalanced best-effort bisection %d/%d", n0, n1)
	}
	l2, err := Lambda2(g, opts, rng.NewFib(81))
	if !IsNotConverged(err) || math.IsNaN(l2) {
		t.Fatalf("Lambda2: want estimate + ErrNotConverged, got %g / %v", l2, err)
	}
	lb, err := BisectionLowerBound(g, opts, rng.NewFib(81))
	if !IsNotConverged(err) || math.IsNaN(lb) {
		t.Fatalf("BisectionLowerBound: want bound + ErrNotConverged, got %g / %v", lb, err)
	}
	// The power-iteration oracle reports the same typed error.
	if _, err := NewWorkspace().powerFiedler(g, opts, rng.NewFib(81)); !IsNotConverged(err) {
		t.Fatalf("power oracle: want ErrNotConverged, got %v", err)
	}
}

func asNotConverged(err error, out **ErrNotConverged) bool {
	e, ok := err.(*ErrNotConverged)
	if ok {
		*out = e
	}
	return ok
}

// TestFiedlerSteadyAllocs is the zero-alloc contract for the warm
// solver: with a reused Workspace, repeat Fiedler solves must not touch
// the heap.
func TestFiedlerSteadyAllocs(t *testing.T) {
	g := mustGraph(gen.BReg(2000, 10, 4, rng.NewFib(85)))
	opts := Options{Workspace: NewWorkspace()}
	r := rng.NewFib(87)
	if _, err := Fiedler(g, opts, r); err != nil && !IsNotConverged(err) {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Fiedler(g, opts, r); err != nil && !IsNotConverged(err) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Fiedler allocates %.1f per run, want 0", allocs)
	}
}
