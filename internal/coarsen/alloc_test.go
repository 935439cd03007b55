package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
)

// allocGraph builds the instance the steady-state tests run on — the
// paper's planted-regular family at the degree the benchmarks use —
// plus a side buffer with capacity for any coarse bisection of it.
func allocGraph(t testing.TB) *graphAndScratch {
	t.Helper()
	g, err := gen.BReg(400, 8, 4, rng.NewFib(42))
	if err != nil {
		t.Fatal(err)
	}
	return &graphAndScratch{g: g, cs: make([]uint8, g.N())}
}

type graphAndScratch struct {
	g  *graph.Graph
	cs []uint8
}

// warmWorkspace bounds every arena buffer by contracting the empty
// matching once: the coarse graph then has the full fine vertex count,
// so every later (random, smaller) contraction fits without growth.
// The random coarse size varies run to run, which is exactly why the
// arena sizes by fine-graph bounds — this warm-up makes that bound
// explicit for the allocation assertions.
func warmWorkspace(t testing.TB, w *Workspace, gs *graphAndScratch) {
	t.Helper()
	empty := make([]int32, gs.g.N())
	for i := range empty {
		empty[i] = -1
	}
	w.Reset()
	if _, err := w.Contract(gs.g, empty); err != nil {
		t.Fatal(err)
	}
	w.Reset()
}

// TestContractSteadyAllocs: a warm workspace matches and contracts with
// zero heap allocations per cycle.
func TestContractSteadyAllocs(t *testing.T) {
	gs := allocGraph(t)
	w := NewWorkspace()
	warmWorkspace(t, w, gs)
	r := rng.NewFib(7)
	var failed bool
	allocs := testing.AllocsPerRun(50, func() {
		w.Reset()
		mate := w.RandomMaximal(gs.g, r)
		if _, err := w.Contract(gs.g, mate); err != nil {
			failed = true
		}
	})
	if failed {
		t.Fatal("Contract failed during steady-state run")
	}
	if allocs != 0 {
		t.Errorf("warm match+contract cycle allocates %v times per run, want 0", allocs)
	}
}

// TestCompactCycleSteadyAllocs: the full interior compaction cycle —
// match, contract, coarse bisection reset, workspace projection,
// balance repair — runs allocation-free on a warm workspace. (The
// public CompactOnce additionally allocates its caller-owned result;
// this test pins everything beneath that.)
func TestCompactCycleSteadyAllocs(t *testing.T) {
	gs := allocGraph(t)
	w := NewWorkspace()
	warmWorkspace(t, w, gs)
	var coarseBis partition.Bisection
	// Warm the reusable coarse bisection against the fine graph, whose
	// size bounds every coarse graph's.
	if err := coarseBis.Reset(gs.g, gs.cs); err != nil {
		t.Fatal(err)
	}
	r := rng.NewFib(7)
	minImb := partition.MinAchievableImbalance(gs.g.TotalVertexWeight())
	var failed bool
	cycle := func() {
		w.Reset()
		mate := w.RandomMaximal(gs.g, r)
		c, err := w.Contract(gs.g, mate)
		if err != nil {
			failed = true
			return
		}
		cn := c.Coarse.N()
		cs := gs.cs[:cn]
		for i := range cs {
			cs[i] = uint8(i & 1)
		}
		if err := coarseBis.Reset(c.Coarse, cs); err != nil {
			failed = true
			return
		}
		fine, err := w.Project(c, &coarseBis)
		if err != nil {
			failed = true
			return
		}
		partition.RepairBalance(fine, minImb)
	}
	cycle() // warm the projection-side buffers once
	allocs := testing.AllocsPerRun(50, cycle)
	if failed {
		t.Fatal("compaction cycle failed during steady-state run")
	}
	if allocs != 0 {
		t.Errorf("warm compaction cycle allocates %v times per run, want 0", allocs)
	}
}

// TestProjectMatchesFreshPath: the workspace projection and the
// allocating Contraction.Project agree on every vertex side and the
// cut, for random coarse bisections.
func TestProjectMatchesFreshPath(t *testing.T) {
	gs := allocGraph(t)
	w := NewWorkspace()
	r := rng.NewFib(11)
	for round := 0; round < 5; round++ {
		w.Reset()
		mate := w.RandomMaximal(gs.g, r)
		c, err := w.Contract(gs.g, mate)
		if err != nil {
			t.Fatal(err)
		}
		cb := partition.NewRandom(c.Coarse, r)
		fresh, err := c.Project(cb)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := w.Project(c, cb)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Cut() != ws.Cut() {
			t.Fatalf("round %d: fresh cut %d != workspace cut %d", round, fresh.Cut(), ws.Cut())
		}
		for v := int32(0); int(v) < gs.g.N(); v++ {
			if fresh.Side(v) != ws.Side(v) {
				t.Fatalf("round %d: side mismatch at vertex %d", round, v)
			}
		}
		if err := ws.Validate(); err != nil {
			t.Fatalf("round %d: workspace projection invalid: %v", round, err)
		}
	}
}

// TestWorkspaceMatchingStream: the workspace matching consumes the
// random stream identically to the package function, so switching a
// driver to an arena can never move any downstream draw.
func TestWorkspaceMatchingStream(t *testing.T) {
	// The Gbreg(40000, 64, 3) instance has more than 2¹⁵ vertices, like
	// the finer levels of a multilevel run.
	large, err := gen.BReg(40000, 64, 3, rng.NewFib(15))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{allocGraph(t).g, large} {
		w := NewWorkspace()
		r1 := rng.NewFib(99)
		r2 := rng.NewFib(99)
		for round := 0; round < 3; round++ {
			a := matching.RandomMaximal(g, r1)
			b := w.RandomMaximal(g, r2)
			for v := range a {
				if a[v] != b[v] {
					t.Fatalf("n=%d round %d: mate[%d] differs: %d vs %d", g.N(), round, v, a[v], b[v])
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("n=%d round %d: streams diverged after matching", g.N(), round)
			}
		}
	}
}
