package service

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// panicky stands in for a bisector whose cached workspace a bug has
// corrupted: every run panics.
type panicky struct{}

func (panicky) Name() string { return "panicky" }

func (panicky) Bisect(*graph.Graph, *rng.Rand) (*partition.Bisection, error) {
	panic("corrupted workspace")
}

// TestRunJobPanicBoundary drives runJob's recover, the daemon's one
// panic boundary: a job whose cached bisector panics must fail with
// "panic: …" and a written record, and report its bisector set as
// poisoned (ok=false) so the worker rebuilds it; a fresh set then runs
// the same spec to the result a clean daemon returns.
func TestRunJobPanicBoundary(t *testing.T) {
	g := testGraph(t, 300, 4, 13)
	srv, ts := newTestServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	ref := uploadGraph(t, ts, g)
	spec := Spec{Graph: ref, Algorithm: "ckl", Starts: 2, Seed: 9}
	id := submitJob(t, ts, map[string]any{
		"graph": ref, "algorithm": spec.Algorithm, "starts": spec.Starts, "seed": spec.Seed,
	})
	if v := waitTerminal(t, ts, id); v.State != StateDone {
		t.Fatalf("clean job ended %q (%s), want done", v.State, v.Error)
	}
	clean := resultOf(t, ts, id)

	// The jobs below never enter the queue: the test is their worker.
	poisoned := newJob("panic-1", 0, spec, g, 1, 0)
	if srv.runJob(poisoned, map[string]core.Bisector{spec.Algorithm: panicky{}}) {
		t.Fatal("runJob reported a panicking job's bisector set as reusable")
	}
	select {
	case <-poisoned.done:
	default:
		t.Fatal("panicked job is not terminal")
	}
	rec, err := srv.store.loadJob(poisoned.id)
	if err != nil {
		t.Fatalf("panicked job's record: %v", err)
	}
	if rec.State != StateFailed || !strings.HasPrefix(rec.Error, "panic: corrupted workspace") {
		t.Fatalf("panicked job's record is %q (%q), want failed with the panic", rec.State, rec.Error)
	}

	rerun := newJob("panic-2", 0, spec, g, 1, 0)
	if !srv.runJob(rerun, map[string]core.Bisector{}) {
		t.Fatal("runJob reported a clean job's bisector set as poisoned")
	}
	rec, err = srv.store.loadJob(rerun.id)
	if err != nil {
		t.Fatalf("re-run job's record: %v", err)
	}
	if rec.State != StateDone || rec.Result == nil {
		t.Fatalf("re-run job ended %q (%s), want done", rec.State, rec.Error)
	}
	want := make([]byte, len(clean.Sides))
	for i, s := range clean.Sides {
		want[i] = byte(s)
	}
	if rec.Result.Cut != clean.Cut || !bytes.Equal(rec.Sides, want) {
		t.Fatalf("re-run cut %d differs from a clean daemon's %d, or its sides do", rec.Result.Cut, clean.Cut)
	}
}
