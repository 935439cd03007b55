package kl

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestPassSteadyStateZeroAlloc locks in the workspace contract: once a
// Refiner has seen a graph, further passes on graphs of that size
// allocate nothing at all, with the serial or the parallel bucket fill.
func TestPassSteadyStateZeroAlloc(t *testing.T) {
	saved := ParallelMinVertices
	ParallelMinVertices = 1
	defer func() { ParallelMinVertices = saved }()
	r := rng.NewFib(11)
	g, err := gen.GNP(300, 4.0/299, r)
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, r)
	for _, opts := range []Options{{}, {ParallelDegree: 2}} {
		w := NewRefiner()
		if _, _, _, err := w.Pass(b, opts); err != nil {
			t.Fatal(err) // warm-up sizes the workspace and starts the pool
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, _, err := w.Pass(b, opts); err != nil {
				t.Error(err)
			}
		})
		w.Close()
		if allocs != 0 {
			t.Fatalf("steady-state KL pass (ParallelDegree %d) allocated %.1f times per run, want 0", opts.ParallelDegree, allocs)
		}
	}
}

// TestRefineSteadyStateZeroAlloc extends the contract to a whole Refine
// call (multiple passes to the fixpoint).
func TestRefineSteadyStateZeroAlloc(t *testing.T) {
	r := rng.NewFib(12)
	g, err := gen.GNP(300, 4.0/299, r)
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, r)
	w := NewRefiner()
	if _, err := w.Refine(b, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.Refine(b, Options{}); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state KL refine allocated %.1f times per run, want 0", allocs)
	}
}

// TestWorkspaceShrinksToSmallerGraphs verifies one workspace serves
// graphs of different sizes (the multilevel use case) with identical
// results to fresh workspaces.
func TestWorkspaceShrinksToSmallerGraphs(t *testing.T) {
	w := NewRefiner()
	for _, n := range []int{200, 40, 120, 10} {
		r := rng.NewFib(uint64(n))
		g, err := gen.GNP(n, 3.0/float64(n-1), r)
		if err != nil {
			t.Fatal(err)
		}
		shared := partition.NewRandom(g, rng.NewFib(99))
		fresh := shared.Clone()
		stShared, err := w.Refine(shared, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stFresh, err := Refine(fresh, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if shared.Cut() != fresh.Cut() || stShared.ScannedPairs != stFresh.ScannedPairs {
			t.Fatalf("n=%d: shared workspace cut=%d scanned=%d, fresh cut=%d scanned=%d",
				n, shared.Cut(), stShared.ScannedPairs, fresh.Cut(), stFresh.ScannedPairs)
		}
		for v := int32(0); int(v) < n; v++ {
			if shared.Side(v) != fresh.Side(v) {
				t.Fatalf("n=%d: side[%d] differs between shared and fresh workspace", n, v)
			}
		}
	}
}
