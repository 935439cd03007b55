package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
)

// poisoned panics on its nth call (counted across goroutines) and
// otherwise delegates, simulating a bisector bug that takes down one
// start of a parallel run.
type poisoned struct {
	inner Bisector
	calls *atomic.Int32
	nth   int32
}

func (p poisoned) Name() string { return "poisoned" }

func (p poisoned) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if p.calls.Add(1) == p.nth {
		panic("poisoned start")
	}
	return p.inner.Bisect(g, r)
}

// failing always errors without a result.
type failing struct{}

func (failing) Name() string { return "failing" }

func (failing) Bisect(*graph.Graph, *rng.Rand) (*partition.Bisection, error) {
	return nil, errors.New("boom")
}

// One panicking start must neither deadlock the pool nor discard the
// surviving starts' best cut: the run returns a valid bisection plus a
// PoolError carrying the captured PanicError and its stack. Run under
// -race in scripts/check.sh (-count=3) to also shake out pool races.
func TestParallelBestOfPoisonedStart(t *testing.T) {
	g := mustGraph(gen.BReg(120, 6, 3, rng.NewFib(2)))
	inner := poisoned{inner: KL{}, calls: new(atomic.Int32), nth: 3}
	best, err := ParallelBestOf{Inner: inner, Starts: 8, Workers: 4}.Bisect(g, rng.NewFib(7))
	if best == nil {
		t.Fatal("poisoned start discarded the survivors' best cut")
	}
	if verr := best.Validate(); verr != nil {
		t.Fatal(verr)
	}
	var pool *PoolError
	if !errors.As(err, &pool) {
		t.Fatalf("err = %v, want *PoolError", err)
	}
	if pool.Starts != 8 || len(pool.Failed) != 1 {
		t.Fatalf("pool reports %d/%d failures, want 1/8", len(pool.Failed), pool.Starts)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("failure %v does not unwrap to *PanicError", pool.Failed[0].Err)
	}
	if pe.Value != "poisoned start" || len(pe.Stack) == 0 {
		t.Fatalf("panic capture lost value or stack: %v", pe)
	}
}

// When every start fails there is nothing to salvage: nil bisection, and
// the PoolError lists all starts in order.
func TestParallelBestOfAllStartsFail(t *testing.T) {
	g := mustGraph(gen.Cycle(16))
	best, err := ParallelBestOf{Inner: failing{}, Starts: 4, Workers: 2}.Bisect(g, rng.NewFib(1))
	if best != nil {
		t.Fatal("got a bisection from all-failing starts")
	}
	var pool *PoolError
	if !errors.As(err, &pool) {
		t.Fatalf("err = %v, want *PoolError", err)
	}
	if len(pool.Failed) != 4 {
		t.Fatalf("%d failures recorded, want 4", len(pool.Failed))
	}
	for i, f := range pool.Failed {
		if f.Start != i {
			t.Fatalf("failures out of order: %v", pool.Failed)
		}
	}
	if pool.Unwrap() == nil || !errors.Is(err, pool.Failed[0].Err) {
		t.Fatal("PoolError does not unwrap to its first failure")
	}
}

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

// A budget-stopped parallel run keeps the best surviving candidate; a
// generous budget reproduces the uncontrolled result exactly.
func TestParallelBestOfControl(t *testing.T) {
	g := mustGraph(gen.BReg(160, 6, 3, rng.NewFib(6)))
	p := ParallelBestOf{Inner: KL{}, Starts: 4, Workers: 2}
	plain, err := p.Bisect(g, rng.NewFib(8))
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := WithControl(p, runctl.WithBudget(1<<40)).Bisect(g, rng.NewFib(8))
	if err != nil {
		t.Fatal(err)
	}
	if roomy.Cut() != plain.Cut() {
		t.Fatalf("generous budget changed the result: %d vs %d", roomy.Cut(), plain.Cut())
	}
	tight, err := WithControl(p, runctl.WithBudget(2)).Bisect(g, rng.NewFib(8))
	if err != nil && !runctl.IsStop(err) {
		t.Fatal(err)
	}
	if tight == nil {
		t.Fatal("tight budget returned no best-so-far")
	}
	if verr := tight.Validate(); verr != nil {
		t.Fatal(verr)
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

// RefineCtx stops at the next checkpoint, leaving a valid bisection.
func TestRefineCtx(t *testing.T) {
	g := mustGraph(gen.GNP(60, 0.12, rng.NewFib(12)))
	b := partition.NewRandom(g, rng.NewFib(13))
	before := b.Cut()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RefineCtx(ctx, KL{}, b, rng.NewFib(14)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b.Cut() != before {
		t.Fatal("pre-cancelled RefineCtx modified the bisection")
	}
	if err := RefineCtx(context.Background(), KL{}, b, rng.NewFib(14)); err != nil {
		t.Fatal(err)
	}
	if b.Cut() > before {
		t.Fatal("refinement worsened the cut")
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
