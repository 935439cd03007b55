package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// TestJobSpectralInitIdenticalResults pins the service registry flow for
// the spectral-initialized multilevel algorithm: an HTTP "mlkl+spec" job
// returns exactly the result of the equivalent library call on the same
// seed, because the worker's multi-start loop is stream-identical to
// core.BestOf.
func TestJobSpectralInitIdenticalResults(t *testing.T) {
	g := testGraph(t, 2000, 6.0, 33)

	// The library call the job must reproduce: the registry algorithm
	// under a sequential BestOf with a per-campaign workspace.
	base, err := core.New("mlkl+spec")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := core.BestOf{Inner: core.WithWorkspace(base), Starts: 2}.Bisect(g, rng.NewFib(77))
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	ref := uploadGraph(t, ts, g)
	id := submitJob(t, ts, map[string]any{
		"graph": ref, "algorithm": "mlkl+spec", "seed": 77, "starts": 2,
	})
	if v := waitTerminal(t, ts, id); v.State != StateDone {
		t.Fatalf("job ended %q: %s", v.State, v.Error)
	}
	res := resultOf(t, ts, id)
	if res.Cut != lib.Cut() {
		t.Fatalf("job cut %d != library cut %d", res.Cut, lib.Cut())
	}
	if len(res.Sides) != g.N() {
		t.Fatalf("job returned %d sides for %d vertices", len(res.Sides), g.N())
	}
	for v := range res.Sides {
		if int(res.Sides[v]) != int(lib.Side(int32(v))) {
			t.Fatalf("job side of vertex %d differs from the library call", v)
		}
	}
}
