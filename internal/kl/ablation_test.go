package kl

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestScanVariantsIdentical is the correctness half of the KL-scan
// ablation: the production pass (stamped scratch, flat B-side replay),
// the plain oracle of oracle_test.go (cursor walk, adjacency probe, every
// selection checked against a brute-force pair scan), and the unpruned
// full scan (DisablePruning) must select exactly the same pairs. The
// first two must also examine exactly the same candidates (same
// ScannedPairs); the full scan examines at least as many.
func TestScanVariantsIdentical(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 * (2 + r.Intn(40))
		g, err := gen.GNP(n, 3.0/float64(max(n-1, 1)), r)
		if err != nil {
			return false
		}
		base := partition.NewRandom(g, r)

		run := func(opts Options) (*partition.Bisection, Stats) {
			b := base.Clone()
			st, err := Refine(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			return b, st
		}
		fast, fastSt := run(Options{})
		full, fullSt := run(Options{DisablePruning: true})
		plain := base.Clone()
		plainSt := plainRefine(t, plain, Options{}, true)

		if fast.Cut() != plain.Cut() || fast.Cut() != full.Cut() {
			t.Fatalf("cuts diverge: production=%d oracle=%d full=%d", fast.Cut(), plain.Cut(), full.Cut())
		}
		for v := int32(0); int(v) < n; v++ {
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
