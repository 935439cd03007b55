package kl

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestParallelInitAndBlockedScanIdentity pins the blocked pair scan, at
// one thread and with parallel bucket filling, to the plain oracle of
// oracle_test.go: the exact same refinement — same sides, same cut, same
// pass/swap/scanned statistics.
func TestParallelInitAndBlockedScanIdentity(t *testing.T) {
	saved := ParallelMinVertices
	ParallelMinVertices = 1
	defer func() { ParallelMinVertices = saved }()

	g, err := gen.GNP(1200, 0.01, rng.NewFib(3))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) ([]uint8, Stats) {
		b := partition.NewRandom(g, rng.NewFib(41))
		if opts.Workspace != nil {
			defer opts.Workspace.Close()
		}
		st, err := Refine(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return b.Sides(), st
	}
	ref := partition.NewRandom(g, rng.NewFib(41))
	refStats := plainRefine(t, ref, Options{}, false)
	refSides := ref.Sides()
	for name, opts := range map[string]Options{
		"blocked":  {},
		"parallel": {ParallelDegree: 4, Workspace: NewRefiner()},
	} {
		sides, stats := run(opts)
		if stats != refStats {
			t.Fatalf("%s: stats differ: %+v vs %+v", name, stats, refStats)
		}
		for v := range sides {
			if sides[v] != refSides[v] {
				t.Fatalf("%s: side of vertex %d differs", name, v)
			}
		}
	}
}
