package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/kl"
	"repro/internal/rng"
)

// TestParallelRunsLeaveNoGoroutines pins the pool lifecycle of the
// within-run kernels: a driver that builds workspaces (BestOf, every
// ParallelBestOf worker) and a refiner that builds a private workspace
// (kl.Run with a nil Workspace) must close the worker pools those
// workspaces start. The cycle is above the 2¹⁵-vertex gate of the
// sharded contraction and the KL bucket fill, so degree 4 starts real
// pools, and it refines in milliseconds.
func TestParallelRunsLeaveNoGoroutines(t *testing.T) {
	g := mustGraph(gen.Cycle(40000))
	before := runtime.NumGoroutine()
	mlkl := WithParallel(Multilevel{Inner: KL{}}, 4)
	for i := 0; i < 5; i++ {
		if _, err := (BestOf{Inner: mlkl, Starts: 1}).Bisect(g, rng.NewFib(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := (ParallelBestOf{Inner: mlkl, Starts: 2, Workers: 2}).Bisect(g, rng.NewFib(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, err := kl.Run(g, kl.Options{ParallelDegree: 4, MaxPasses: 1}, rng.NewFib(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// A closed pool's helpers exit asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the runs, %d after: worker pools leaked", before, after)
	}
}
