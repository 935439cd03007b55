package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/runctl"
)

// Attaching a control that never fires must not change any algorithm's
// result: same cut, same sides, for every registry entry.
func TestWithControlPreservesResults(t *testing.T) {
	g := mustGraph(gen.GNP(64, 0.1, rng.NewFib(3)))
	for _, name := range Names() {
		b, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := b.Bisect(g, rng.NewFib(11))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		controlled, err := WithControl(b, runctl.WithBudget(1<<40)).Bisect(g, rng.NewFib(11))
		if err != nil {
			t.Fatalf("%s under generous budget: %v", name, err)
		}
		if controlled.Cut() != plain.Cut() || !bytes.Equal(controlled.SidesRef(), plain.SidesRef()) {
			t.Fatalf("%s: control changed the result: cut %d vs %d", name, plain.Cut(), controlled.Cut())
		}
	}
}

// A budget-stopped BestOf still returns a valid best-so-far bisection
// with the stop sentinel, for every budget.
func TestBestOfControlBudget(t *testing.T) {
	g := mustGraph(gen.BReg(160, 6, 3, rng.NewFib(4)))
	for k := int64(1); k <= 10; k++ {
		b := WithControl(BestOf{Inner: KL{}, Starts: 4}, runctl.WithBudget(k))
		res, err := b.Bisect(g, rng.NewFib(5))
		if err != nil && !runctl.IsStop(err) {
			t.Fatalf("budget %d: %v", k, err)
		}
		if res == nil {
			t.Fatalf("budget %d: nil best-so-far", k)
		}
		if verr := res.Validate(); verr != nil {
			t.Fatalf("budget %d: %v", k, verr)
		}
	}
}

// BisectCtx on an already-cancelled context still returns a valid
// bisection (the leaf algorithms' best-so-far is their random start)
// with the context's error; an un-cancelled context changes nothing.
func TestBisectCtx(t *testing.T) {
	g := mustGraph(gen.GNP(60, 0.12, rng.NewFib(9)))
	plain, err := KL{}.Bisect(g, rng.NewFib(10))
	if err != nil {
		t.Fatal(err)
	}
	same, err := BisectCtx(context.Background(), KL{}, g, rng.NewFib(10))
	if err != nil {
		t.Fatal(err)
	}
	if same.Cut() != plain.Cut() || !bytes.Equal(same.SidesRef(), plain.SidesRef()) {
		t.Fatal("BisectCtx with background context changed the result")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := BisectCtx(ctx, KL{}, g, rng.NewFib(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b == nil {
		t.Fatal("cancelled BisectCtx returned no best-so-far")
	}
	if verr := b.Validate(); verr != nil {
		t.Fatal(verr)
	}
}

// A stop that fires while Multilevel uncoarsens must reach the caller.
// Whenever the control has stopped by the time a run returns, the run
// returns the stop sentinel beside its valid best-so-far bisection,
// never a nil error. The mlkl run finishes within 27 checkpoints, so
// budgets 1–40 stop it in every phase from coarsening to the finest
// level's refinement; mlsa polls once per temperature, and budgets up to
// 200 reach its per-level refinement.
func TestMultilevelReportsRefineStop(t *testing.T) {
	g := mustGraph(gen.BReg(4000, 16, 3, rng.NewFib(5)))
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"mlkl", 40}, {"mlsa", 200}} {
		base, err := New(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(1); k <= tc.budget; k++ {
			ctl := runctl.WithBudget(k)
			res, err := WithControl(base, ctl).Bisect(g, rng.NewFib(5))
			if err != nil && !runctl.IsStop(err) {
				t.Fatalf("%s budget %d: %v", tc.name, k, err)
			}
			if ctl.Err() != nil && err == nil {
				t.Fatalf("%s budget %d: the control stopped but the run returned a nil error (cut %d)", tc.name, k, res.Cut())
			}
			if verr := res.Validate(); verr != nil {
				t.Fatalf("%s budget %d: %v", tc.name, k, verr)
			}
		}
	}
}
