package kl

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestScanVariantsIdentical is the correctness half of the KL-scan
// ablation: the production pass (stamped scratch, flat B-side replay,
// tentative swaps kept in the buckets), the plain oracle of
// oracle_test.go (cursor walk, adjacency probe, every selection checked
// against a brute-force pair scan, swaps made and rolled back in the
// bisection), and the unpruned full scan (DisablePruning) must select
// exactly the same pairs. The first two must also examine exactly the
// same candidates (same ScannedPairs) and emit the same events; the full
// scan examines at least as many. Every random graph is checked as drawn
// and reweighted (vertex weights 1–2, edge weights 1–3), so the
// move_batch cut and imbalance are pinned off unit weights too.
func TestScanVariantsIdentical(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 * (2 + r.Intn(40))
		g, err := gen.GNP(n, 3.0/float64(max(n-1, 1)), r)
		if err != nil {
			return false
		}
		checkScanVariants(t, partition.NewRandom(g, r))
		wg := reweight(g, r)
		checkScanVariants(t, partition.NewRandom(wg, r))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	t.Run("cancelling-neighbor", func(t *testing.T) {
		// Side 0 = {0..4}, side 1 = {5..9}. The first pair selected is
		// (0, 5): their common neighbor 1 gets +2 from 0's move and −2
		// from 5's, so its gain — and its LIFO place, ahead of the tied
		// vertex 2 — must not change.
		b := cancellingBisection(t)
		if a, bv, _, _ := plainSelect(b, bucketsOf(t, b), false); a != 0 || bv != 5 {
			t.Fatalf("first selected pair is (%d, %d), want (0, 5)", a, bv)
		}
		g := b.Graph()
		if g.EdgeWeight(0, 1) == 0 || g.EdgeWeight(0, 1) != g.EdgeWeight(5, 1) {
			t.Fatalf("w(0,1) = %d, w(5,1) = %d: the deltas do not cancel", g.EdgeWeight(0, 1), g.EdgeWeight(5, 1))
		}
		checkScanVariants(t, b)
	})
}

// TestBlockedScanMatchesOracle pins the blocked pair scan to the plain
// oracle of oracle_test.go on GNP(1200): the exact same refinement —
// same sides, same cut, same pass/swap/scanned statistics — on a graph
// far above TestScanVariantsIdentical's 82-vertex maximum.
func TestBlockedScanMatchesOracle(t *testing.T) {
	g, err := gen.GNP(1200, 0.01, rng.NewFib(3))
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, rng.NewFib(41))
	ref := b.Clone()
	stats, err := Refine(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if refStats := plainRefine(t, ref, Options{}, false); stats != refStats {
		t.Fatalf("stats differ: %+v vs %+v", stats, refStats)
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if b.Side(v) != ref.Side(v) {
			t.Fatalf("side of vertex %d differs", v)
		}
	}
}

// checkScanVariants runs the three scan variants from base and requires
// the agreement TestScanVariantsIdentical describes.
func checkScanVariants(t *testing.T, base *partition.Bisection) {
	t.Helper()
	run := func(opts Options) (*partition.Bisection, Stats) {
		b := base.Clone()
		st, err := Refine(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return b, st
	}
	fastRec, plainRec := trace.NewRecorder(), trace.NewRecorder()
	fast, fastSt := run(Options{Observer: fastRec})
	full, fullSt := run(Options{DisablePruning: true})
	plain := base.Clone()
	plainSt := plainRefine(t, plain, Options{Observer: plainRec}, true)

	if fast.Cut() != plain.Cut() || fast.Cut() != full.Cut() {
		t.Fatalf("cuts diverge: production=%d oracle=%d full=%d", fast.Cut(), plain.Cut(), full.Cut())
	}
	for v := int32(0); int(v) < base.N(); v++ {
		if fast.Side(v) != plain.Side(v) || fast.Side(v) != full.Side(v) {
			t.Fatalf("side[%d] diverges across scan variants", v)
		}
	}
	if fastSt != plainSt {
		t.Fatalf("stats diverge: production=%+v oracle=%+v", fastSt, plainSt)
	}
	if fullSt.ScannedPairs < fastSt.ScannedPairs {
		t.Fatalf("full scan examined fewer pairs (%d) than the pruned scan (%d)",
			fullSt.ScannedPairs, fastSt.ScannedPairs)
	}
	got, want := fastRec.Events(), plainRec.Events()
	if len(got) != len(want) {
		t.Fatalf("production emitted %d events, oracle %d", len(got), len(want))
	}
	for i := range got {
		got[i].ElapsedNS = 0
		if got[i] != want[i] {
			t.Fatalf("event %d diverges:\nproduction %+v\noracle     %+v", i, got[i], want[i])
		}
	}
}

// reweight returns g with vertex weights drawn from 1–2 and edge weights
// from 1–3.
func reweight(g *graph.Graph, r *rng.Rand) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		b.SetVertexWeight(v, int32(1+r.Intn(2)))
	}
	g.Edges(func(u, v, _ int32) { b.AddWeightedEdge(u, v, int32(1+r.Intn(3))) })
	return b.MustBuild()
}

// bucketsOf fills a fresh pair of gain buckets from b, as a pass does.
func bucketsOf(t testing.TB, b *partition.Bisection) *[2]partition.GainBuckets {
	t.Helper()
	var bk [2]partition.GainBuckets
	for s := range bk {
		if err := bk[s].Reset(b.N(), b.Graph().MaxWeightedDegree()); err != nil {
			t.Fatal(err)
		}
	}
	for v := int32(0); int(v) < b.N(); v++ {
		bk[b.Side(v)].Add(v, b.Gain(v))
	}
	return &bk
}

// cancellingBisection is a fixed 10-vertex bisection whose first KL
// selection, (0, 5), has the common neighbor 1 with w(0,1) = w(5,1) = 1.
// Vertices 1 and 2 sit tied at gain 2, 2 ahead of 1 in LIFO order, and
// the second selection is decided by that order: (2, 8) if 1 keeps its
// place, (1, 9) if it was re-slotted.
func cancellingBisection(t *testing.T) *partition.Bisection {
	t.Helper()
	gb := graph.NewBuilder(10)
	for _, e := range [][3]int32{
		{0, 6, 3}, {0, 7, 3}, {0, 1, 1},
		{5, 3, 3}, {5, 4, 3}, {5, 1, 1},
		{1, 8, 2}, {2, 9, 2},
	} {
		gb.AddWeightedEdge(e[0], e[1], e[2])
	}
	b, err := partition.New(gb.MustBuild(), []uint8{0, 0, 0, 0, 0, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
