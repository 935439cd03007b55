package matching

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func allocTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.GNP(400, 4.0/399.0, rng.NewFib(42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkspaceSteadyAllocs: after one sizing call, the workspace
// matchers run allocation-free.
func TestWorkspaceSteadyAllocs(t *testing.T) {
	g := allocTestGraph(t)
	for _, tc := range []struct {
		name  string
		match func(w *Workspace, r *rng.Rand) []int32
	}{
		{"RandomMaximal", func(w *Workspace, r *rng.Rand) []int32 { return w.RandomMaximal(g, r) }},
		{"HeavyEdge", func(w *Workspace, r *rng.Rand) []int32 { return w.HeavyEdge(g, r) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := new(Workspace)
			r := rng.NewFib(7)
			tc.match(w, r) // size the buffers
			var mate []int32
			allocs := testing.AllocsPerRun(50, func() {
				mate = tc.match(w, r)
			})
			if allocs != 0 {
				t.Errorf("warm %s allocates %v times per run, want 0", tc.name, allocs)
			}
			if err := Validate(g, mate); err != nil {
				t.Fatal(err)
			}
			if !IsMaximal(g, mate) {
				t.Fatal("steady-state matching is not maximal")
			}
		})
	}
}

// TestWorkspaceMatchesPackage: workspace and package matchers draw the
// same stream and produce the same matching, for both policies.
func TestWorkspaceMatchesPackage(t *testing.T) {
	g := allocTestGraph(t)
	w := new(Workspace)
	r1, r2 := rng.NewFib(9), rng.NewFib(9)
	for round := 0; round < 3; round++ {
		a, b := RandomMaximal(g, r1), w.RandomMaximal(g, r2)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("RandomMaximal round %d: mate[%d] = %d vs %d", round, v, a[v], b[v])
			}
		}
		a, b = HeavyEdge(g, r1), w.HeavyEdge(g, r2)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("HeavyEdge round %d: mate[%d] = %d vs %d", round, v, a[v], b[v])
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("round %d: streams diverged", round)
		}
	}
}
