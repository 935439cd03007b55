package service

import (
	"net/http/httptest"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/fm"
	"repro/internal/kl"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/spectral"
)

// TestJobSpectralInitIdenticalResults pins the service registry flow for
// the spectral-initialized multilevel algorithm: an HTTP "mlkl+spec"
// job — serial and with -job-threads 4 — returns exactly the result of
// the equivalent library call on the same seed, because the worker's
// multi-start loop is stream-identical to core.BestOf and the spectral
// solver's sharded kernels are deterministic at every degree.
func TestJobSpectralInitIdenticalResults(t *testing.T) {
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

	run := func(ts *httptest.Server) resultBody {
		ref := uploadGraph(t, ts, g)
		id := submitJob(t, ts, map[string]any{
			"graph": ref, "algorithm": "mlkl+spec", "seed": 77, "starts": 2,
		})
		if v := waitTerminal(t, ts, id); v.State != StateDone {
			t.Fatalf("job ended %q: %s", v.State, v.Error)
		}
		return resultOf(t, ts, id)
	}

	_, serialTS := newTestServer(t, Config{Workers: 1})
	_, threadedTS := newTestServer(t, Config{Workers: 1, JobThreads: 4})
	for name, res := range map[string]resultBody{
		"serial":   run(serialTS),
		"threaded": run(threadedTS),
	} {
		if res.Cut != lib.Cut() {
			t.Fatalf("%s job cut %d != library cut %d", name, res.Cut, lib.Cut())
		}
		if len(res.Sides) != g.N() {
			t.Fatalf("%s job returned %d sides for %d vertices", name, len(res.Sides), g.N())
		}
		for v := range res.Sides {
			if int(res.Sides[v]) != int(lib.Side(int32(v))) {
				t.Fatalf("%s job side of vertex %d differs from the library call", name, v)
			}
		}
	}
}
