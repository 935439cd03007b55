package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/anneal"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestDeterminismMatrix is the repo-wide workspace-state invariance
// gate: BestOf over kl, ckl, a short-schedule sa, mlkl and mlkl+spec
// must produce the identical cut, side assignment and trace stream
// (a) with no workspace, (b) under a fresh WithWorkspace, and (c) with
// that same bisector after a run on another graph, which is how a
// bisectd worker and a harness row reuse one. Whatever a workspace
// keeps between runs must not show anywhere. ElapsedNS is wall-clock
// and is zeroed before hashing; every other event field is covered.
func TestDeterminismMatrix(t *testing.T) {
	g, err := gen.GNP(3000, 8.0/2999, rng.NewFib(47))
	if err != nil {
		t.Fatal(err)
	}
	other, err := gen.GNP(4000, 6.0/3999, rng.NewFib(53))
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		cut       int64
		sidesHash uint64
		traceHash uint64
		events    int
	}
	run := func(alg Bisector) cell {
		rec := trace.NewRecorder(0)
		b, err := WithObserver(alg, rec).Bisect(g, rng.NewFib(101))
		if err != nil {
			t.Fatal(err)
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

	shortSA := SA{Opts: anneal.Options{SizeFactor: 2, FreezeLim: 2, MaxTemps: 30}}
	// "mlkl+spec" adds the coarsest-level Fiedler solve to the matrix:
	// its solver workspace must not perturb the split either.
	for _, name := range []string{"kl", "ckl", "sa", "mlkl", "mlkl+spec"} {
		t.Run(name, func(t *testing.T) {
			base, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == "sa" {
				base = shortSA
			}
			plain := BestOf{Inner: base, Starts: 4}
			ref := run(plain)
			if ref.events == 0 {
				t.Fatal("no trace events recorded — the trace hash pins nothing")
			}
			fresh := WithWorkspace(plain)
			if reflect.DeepEqual(fresh, Bisector(plain)) {
				t.Fatal("WithWorkspace attached no workspace — states (b) and (c) would test nothing")
			}
			if got := run(fresh); got != ref {
				t.Fatalf("fresh workspace diverges from none:\n  got  %+v\n  want %+v", got, ref)
			}
			if _, err := fresh.Bisect(other, rng.NewFib(7)); err != nil {
				t.Fatal(err)
			}
			if got := run(fresh); got != ref {
				t.Fatalf("reused workspace diverges from none:\n  got  %+v\n  want %+v", got, ref)
			}
		})
	}
}
