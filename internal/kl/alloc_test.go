package kl

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestPassSteadyStateZeroAlloc locks in the workspace contract: once a
// Refiner has seen a graph, further passes on graphs of that size
// allocate nothing at all, for a full pass and for a pass the lookahead
// bound cuts short. Every measured pass starts from the same bisection,
// so each one repeats the warm-up.
func TestPassSteadyStateZeroAlloc(t *testing.T) {
	small, big := allocGraphs(t, 11)
	for _, tc := range []struct {
		name  string
		start *partition.Bisection
		opts  Options
	}{
		{"full", small, Options{}},
		{"bounded", big, Options{Lookahead: MultilevelLookahead}},
	} {
		w := NewRefiner()
		b := tc.start.Clone()
		_, _, tentative, _, err := w.pass(b, tc.opts) // warm-up sizes the workspace
		if err != nil {
			t.Fatal(err)
		}
		if (tentative > 0) != (tc.opts.Lookahead > 0) {
			t.Fatalf("%s: warm-up pass reports tentative = %d, want > 0 exactly when bounded", tc.name, tentative)
		}
		allocs := testing.AllocsPerRun(20, func() {
			b.Assign(tc.start)
			if _, _, _, err := w.Pass(b, tc.opts); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state KL pass (%s) allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

// TestRefineSteadyStateZeroAlloc extends the contract to a whole Refine
// call (multiple passes to the fixpoint), full and bounded, from the
// same start every run.
func TestRefineSteadyStateZeroAlloc(t *testing.T) {
	small, big := allocGraphs(t, 12)
	for _, tc := range []struct {
		name  string
		start *partition.Bisection
		opts  Options
	}{
		{"full", small, Options{}},
		{"bounded", big, Options{Lookahead: MultilevelLookahead}},
	} {
		w := NewRefiner()
		b := tc.start.Clone()
		rec := trace.NewRecorder()
		warm := tc.opts
		warm.Observer = rec
		if _, err := w.Refine(b, warm); err != nil {
			t.Fatal(err)
		}
		cut := 0
		for _, e := range rec.Events() {
			if e.Tentative > 0 {
				cut++
			}
		}
		if (cut > 0) != (tc.opts.Lookahead > 0) {
			t.Fatalf("%s: the bound cut %d passes short, want > 0 exactly when bounded", tc.name, cut)
		}
		allocs := testing.AllocsPerRun(20, func() {
			b.Assign(tc.start)
			if _, err := w.Refine(b, tc.opts); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state KL refine (%s) allocated %.1f times per run, want 0", tc.name, allocs)
		}
	}
}

// allocGraphs returns a random start on a 300-vertex GNP graph and, on
// a 3000-vertex one, a start one full pass has refined: from there the
// next pass improves early, so MultilevelLookahead ends it.
func allocGraphs(t *testing.T, seed uint64) (small, big *partition.Bisection) {
	t.Helper()
	r := rng.NewFib(seed)
	gs, err := gen.GNP(300, 4.0/299, r)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := gen.GNP(3000, 4.0/2999, r)
	if err != nil {
		t.Fatal(err)
	}
	small, big = partition.NewRandom(gs, r), partition.NewRandom(gb, r)
	if _, err := Refine(big, Options{MaxPasses: 1}); err != nil {
		t.Fatal(err)
	}
	return small, big
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
