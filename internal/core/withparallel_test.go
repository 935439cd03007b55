package core

import (
	"testing"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/kl"
	"repro/internal/rng"
)

// TestWithParallelDeterminism pins the Parallelizable contract on the
// composed bisectors: with the parallel thresholds lowered so the
// sharded kernels actually engage, every degree ≥ 2 must return the
// exact same bisection.
func TestWithParallelDeterminism(t *testing.T) {
	savedC, savedK := coarsen.ParallelMinVertices, kl.ParallelMinVertices
	coarsen.ParallelMinVertices, kl.ParallelMinVertices = 1, 1
	t.Cleanup(func() {
		coarsen.ParallelMinVertices, kl.ParallelMinVertices = savedC, savedK
	})

	g, err := gen.GNP(2000, 0.005, rng.NewFib(19))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kl", "fm", "ckl", "cfm", "mlkl", "mlfm"} {
		base, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(degree int) []uint8 {
			b, err := WithParallel(WithWorkspace(base), degree).Bisect(g, rng.NewFib(55))
			if err != nil {
				t.Fatalf("%s degree %d: %v", name, degree, err)
			}
			return b.Sides()
		}
		ref := run(2)
		for _, degree := range []int{3, 4} {
			got := run(degree)
			for v := range got {
				if got[v] != ref[v] {
					t.Fatalf("%s: degree %d diverges from degree 2 at vertex %d", name, degree, v)
				}
			}
		}
	}
}
