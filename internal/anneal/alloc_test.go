package anneal

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestRefineSteadyStateZeroAlloc locks in the workspace contract: once a
// Refiner has seen a graph, an entire annealing run — start-temperature
// calibration, every temperature's trial loop, undo-log best tracking,
// and the final SetSides/RepairBalance materialization — allocates
// nothing at all.
func TestRefineSteadyStateZeroAlloc(t *testing.T) {
	r := rng.NewFib(21)
	g, err := gen.GNP(300, 4.0/299, r)
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, r)
	opts := Options{SizeFactor: 2, TempFactor: 0.8, FreezeLim: 1, MaxTemps: 4}
	w := NewRefiner()
	if _, err := w.Refine(b, opts, rng.NewFib(3)); err != nil {
		t.Fatal(err) // warm-up sizes the workspace
	}
	runRNG := rng.NewFib(4)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := w.Refine(b, opts, runRNG); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SA run allocated %.1f times per run, want 0", allocs)
	}
}

// TestExpTableBracketsExp pins the acceptance table's correctness
// argument: for every bucket, the stored edges bracket exp(−x) over the
// bucket, the bracket width never exceeds 1 − e^(−δ) < δ = 2⁻⁷, and the
// table-driven decision agrees with the naive u < exp(−x) on a dense
// sweep of (u, x) pairs, including edge-exact and out-of-range inputs.
func TestExpTableBracketsExp(t *testing.T) {
	const delta = expTableMaxX / expTableSize
	maxGap := 1 - math.Exp(-delta)
	if maxGap >= delta {
		t.Fatalf("gap bound %v not below δ=%v", maxGap, delta)
	}
	for i := 0; i < expTableSize; i++ {
		lo, hi := expEdge[i+1], expEdge[i]
		if !(lo < hi) {
			t.Fatalf("bucket %d: edges not decreasing (%v, %v)", i, lo, hi)
		}
		if hi-lo > maxGap {
			t.Fatalf("bucket %d: gap %v exceeds bound %v", i, hi-lo, maxGap)
		}
		// Probe interior and boundary points of the bucket.
		for _, x := range []float64{float64(i) * delta, (float64(i) + 0.5) * delta, math.Nextafter(float64(i+1)*delta, 0)} {
			e := math.Exp(-x)
			if e < lo || e > hi {
				t.Fatalf("bucket %d: exp(−%v)=%v outside [%v, %v]", i, x, e, lo, hi)
			}
		}
	}
	r := rng.NewFib(99)
	for k := 0; k < 200000; k++ {
		x := r.Float64() * 40 // crosses the expTableMaxX=32 cutoff
		u := r.Float64()
		want := u < math.Exp(-x)
		if got := acceptUphill(u, x); got != want {
			t.Fatalf("acceptUphill(%v, %v) = %v, naive says %v", u, x, got, want)
		}
	}
	// Adversarial inputs: exact bucket edges, the cutoff, and +Inf
	// (a fully underflowed temperature).
	for _, x := range []float64{0, delta, 2 * delta, expTableMaxX, expTableMaxX + 1, math.Inf(1)} {
		for _, u := range []float64{0, math.Exp(-x), math.Nextafter(math.Exp(-x), 0), 0.999999} {
			if math.IsNaN(u) {
				continue
			}
			want := u < math.Exp(-x)
			if got := acceptUphill(u, x); got != want {
				t.Fatalf("edge case acceptUphill(%v, %v) = %v, want %v", u, x, got, want)
			}
		}
	}
}
