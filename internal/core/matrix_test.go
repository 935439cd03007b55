package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/kl"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/trace"
)

// TestDeterminismMatrix is the repo-wide thread-count invariance gate:
// one kl, fm, and mlkl configuration each run at thread counts 1, 2, 4,
// and 8 must produce the identical cut, side assignment, and trace
// event stream. Every parallel gate is lowered so the sharded kernels —
// matching handshake, coarsen contraction, the KL/FM bucket fill, FM
// gain updates, and the FM proposal reduce — all actually engage; degree 1 runs the same
// code paths inline, which is what makes `-threads` a pure performance
// knob. ElapsedNS is wall-clock and is zeroed before hashing; every
// other event field is covered.
func TestDeterminismMatrix(t *testing.T) {
	savedC, savedM := coarsen.ParallelMinVertices, matching.ParallelMinVertices
	savedK, savedF := kl.ParallelMinVertices, fm.ParallelMinVertices
	savedFD := fm.ParallelMinDegree
	savedS := spectral.ParallelMinVertices
	coarsen.ParallelMinVertices, matching.ParallelMinVertices = 1, 1
	kl.ParallelMinVertices, fm.ParallelMinVertices = 1, 1
	fm.ParallelMinDegree = 1
	spectral.ParallelMinVertices = 1
	t.Cleanup(func() {
		coarsen.ParallelMinVertices, matching.ParallelMinVertices = savedC, savedM
		kl.ParallelMinVertices, fm.ParallelMinVertices = savedK, savedF
		fm.ParallelMinDegree = savedFD
		spectral.ParallelMinVertices = savedS
	})

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
	run := func(name string, threads int) cell {
		base, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(0)
		alg := WithObserver(WithParallel(WithWorkspace(base), threads), rec)
		b, err := alg.Bisect(g, rng.NewFib(101))
		if err != nil {
			t.Fatalf("%s threads=%d: %v", name, threads, err)
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

	// "mlkl+spec" adds the sharded spectral solver to the matrix: the
	// coarsest-level Fiedler solve (sharded matvec + fixed-block
	// reductions) must not perturb the split at any thread count.
	for _, name := range []string{"kl", "fm", "mlkl", "mlkl+spec"} {
		ref := run(name, 1)
		if ref.events == 0 {
			t.Fatalf("%s: no trace events recorded — the trace hash pins nothing", name)
		}
		for _, threads := range []int{2, 4, 8} {
			got := run(name, threads)
			if got != ref {
				t.Fatalf("%s: threads=%d diverges from threads=1:\n  got  %+v\n  want %+v",
					name, threads, got, ref)
			}
		}
	}
}
