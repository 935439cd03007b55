package service

import (
	"net/http/httptest"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/kl"
)

// TestJobThreadsIdenticalResults pins the JobThreads contract from
// docs/SERVICE.md: a daemon running jobs with -job-threads > 1 returns
// exactly the results of a serial daemon — cut, imbalance, and side
// assignment — because the sharded kernels are deterministic at every
// degree. The parallel gates are lowered so the kernels actually engage
// on the test-sized instance.
func TestJobThreadsIdenticalResults(t *testing.T) {
	savedC, savedK := coarsen.ParallelMinVertices, kl.ParallelMinVertices
	coarsen.ParallelMinVertices, kl.ParallelMinVertices = 1, 1
	t.Cleanup(func() {
		coarsen.ParallelMinVertices, kl.ParallelMinVertices = savedC, savedK
	})

	g := testGraph(t, 2000, 6.0, 33)
	run := func(ts *httptest.Server) resultBody {
		ref := uploadGraph(t, ts, g)
		id := submitJob(t, ts, map[string]any{
			"graph": ref, "algorithm": "mlkl", "seed": 77, "starts": 2,
		})
		if v := waitTerminal(t, ts, id); v.State != StateDone {
			t.Fatalf("job ended %q: %s", v.State, v.Error)
		}
		return resultOf(t, ts, id)
	}

	_, serialTS := newTestServer(t, Config{Workers: 1})
	_, threadedTS := newTestServer(t, Config{Workers: 1, JobThreads: 4})
	serial := run(serialTS)
	threaded := run(threadedTS)

	if serial.Cut != threaded.Cut || serial.Imbalance != threaded.Imbalance {
		t.Fatalf("job-threads changed the result: serial cut=%d imb=%d, threaded cut=%d imb=%d",
			serial.Cut, serial.Imbalance, threaded.Cut, threaded.Imbalance)
	}
	if len(serial.Sides) != len(threaded.Sides) {
		t.Fatalf("sides length mismatch: %d vs %d", len(serial.Sides), len(threaded.Sides))
	}
	for v := range serial.Sides {
		if serial.Sides[v] != threaded.Sides[v] {
			t.Fatalf("job-threads changed the side of vertex %d", v)
		}
	}
}
