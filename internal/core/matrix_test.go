package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestDeterminismMatrix is the repo-wide worker-count invariance gate:
// ParallelBestOf over one kl, mlkl and mlkl+spec configuration each,
// at 1, 2, 4 and 8 workers, must produce the identical cut, side
// assignment and merged trace stream. Every start runs on one goroutine
// from its own pre-split stream, so which worker runs which start must
// not show anywhere. ElapsedNS is wall-clock and is zeroed before
// hashing; every other event field is covered.
func TestDeterminismMatrix(t *testing.T) {
	g, err := gen.GNP(3000, 8.0/2999, rng.NewFib(47))
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		cut       int64
		sidesHash uint64
		traceHash uint64
		events    int
	}
	run := func(name string, workers int) cell {
		base, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(0)
		alg := ParallelBestOf{Inner: base, Starts: 4, Workers: workers, Observer: rec}
		b, err := alg.Bisect(g, rng.NewFib(101))
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		sh := fnv.New64a()
		sh.Write(b.SidesRef())
		th := fnv.New64a()
		for _, e := range rec.Events() {
			e.ElapsedNS = 0
			fmt.Fprintf(th, "%+v\n", e)
		}
		return cell{cut: b.Cut(), sidesHash: sh.Sum64(), traceHash: th.Sum64(), events: rec.Len()}
	}

	// "mlkl+spec" adds the coarsest-level Fiedler solve to the matrix:
	// it must not perturb the split at any worker count.
	for _, name := range []string{"kl", "mlkl", "mlkl+spec"} {
		ref := run(name, 1)
		if ref.events == 0 {
			t.Fatalf("%s: no trace events recorded — the trace hash pins nothing", name)
		}
		for _, workers := range []int{2, 4, 8} {
			got := run(name, workers)
			if got != ref {
				t.Fatalf("%s: workers=%d diverges from workers=1:\n  got  %+v\n  want %+v",
					name, workers, got, ref)
			}
		}
	}
}
