package kl

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// lowerGates drops the parallel thresholds so small instances exercise
// the sharded swap kernel, restoring them when the test ends.
func lowerGates(t *testing.T) {
	t.Helper()
	savedV, savedD := ParallelMinVertices, ParallelMinDegree
	ParallelMinVertices = 1
	ParallelMinDegree = 1
	t.Cleanup(func() { ParallelMinVertices, ParallelMinDegree = savedV, savedD })
}

// TestShardedSwapIdentity pins the sharded pass body — parallel init
// plus sharded swap gain updates/repositions — to the serial reference
// at several pool degrees.
func TestShardedSwapIdentity(t *testing.T) {
	lowerGates(t)
	g, err := gen.GNP(800, 10.0/799, rng.NewFib(9))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) ([]uint8, Stats) {
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
	refSides, refStats := run(Options{})
	for _, opts := range []Options{
		{ParallelDegree: 2},
		{ParallelDegree: 4},
		{ParallelDegree: 8},
	} {
		opts.Workspace = NewRefiner()
		sides, stats := run(opts)
		if stats != refStats {
			t.Fatalf("opts %+v: stats %+v, want %+v", opts, stats, refStats)
		}
		for v := range sides {
			if sides[v] != refSides[v] {
				t.Fatalf("opts %+v: side of vertex %d differs", opts, v)
			}
		}
	}
}

// TestShardedSwapSteadyAllocs pins the zero-allocation contract of the
// sharded swap kernel: once a Refiner has warmed up, parallel passes
// allocate nothing.
func TestShardedSwapSteadyAllocs(t *testing.T) {
	lowerGates(t)
	g, err := gen.GNP(600, 12.0/599, rng.NewFib(21))
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, rng.NewFib(3))
	w := NewRefiner()
	defer w.Close()
	opts := Options{ParallelDegree: 4, Workspace: w}
	if _, _, _, err := w.Pass(b, opts); err != nil {
		t.Fatal(err) // warm-up sizes the workspace and binds the closures
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := w.Pass(b, opts); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sharded KL pass allocated %.1f times per run, want 0", allocs)
	}
}
