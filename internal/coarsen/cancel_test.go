package coarsen

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
)

func cancelTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.GNP(400, 0.02, rng.NewFib(19))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cancelInitial(g *graph.Graph, r *rng.Rand) *partition.Bisection {
	return partition.NewRandom(g, r)
}

func cancelRefine(b *partition.Bisection, r *rng.Rand) {
	if _, err := kl.Refine(b, kl.Options{MaxPasses: 2}); err != nil {
		panic(err)
	}
}

// Multilevel under any checkpoint budget must still hand back a valid,
// balanced bisection of the original fine graph, with the stop sentinel
// when the budget ran out mid-coarsening; equal budgets must produce
// identical results.
func TestMultilevelControlBudget(t *testing.T) {
	g := cancelTestGraph(t)
	tol := g.TotalVertexWeight() % 2
	for k := int64(1); k <= 8; k++ {
		opts := &MultilevelOptions{Control: runctl.WithBudget(k)}
		b, err := Multilevel(g, opts, cancelInitial, cancelRefine, rng.NewFib(5))
		if err != nil && !runctl.IsStop(err) {
			t.Fatalf("budget %d: %v", k, err)
		}
		if b == nil {
			t.Fatalf("budget %d: nil bisection", k)
		}
		if b.Graph() != g {
			t.Fatalf("budget %d: result is not a bisection of the fine graph", k)
		}
		if verr := b.Validate(); verr != nil {
			t.Fatalf("budget %d: %v", k, verr)
		}
		if imb := b.Imbalance(); imb > tol {
			t.Fatalf("budget %d: imbalance %d > %d", k, imb, tol)
		}
		opts2 := &MultilevelOptions{Control: runctl.WithBudget(k)}
		b2, err2 := Multilevel(g, opts2, cancelInitial, cancelRefine, rng.NewFib(5))
		if err2 != nil && !runctl.IsStop(err2) {
			t.Fatal(err2)
		}
		if b2.Cut() != b.Cut() || !bytes.Equal(b2.SidesRef(), b.SidesRef()) {
			t.Fatalf("budget %d not deterministic: cut %d vs %d", k, b.Cut(), b2.Cut())
		}
	}
	// A generous budget must not stop at all and must match the
	// uncontrolled run exactly.
	free, err := Multilevel(g, nil, cancelInitial, cancelRefine, rng.NewFib(5))
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := Multilevel(g, &MultilevelOptions{Control: runctl.WithBudget(1 << 20)}, cancelInitial, cancelRefine, rng.NewFib(5))
	if err != nil {
		t.Fatalf("generous budget stopped: %v", err)
	}
	if roomy.Cut() != free.Cut() || !bytes.Equal(roomy.SidesRef(), free.SidesRef()) {
		t.Fatalf("generous budget diverges from uncontrolled run: cut %d vs %d", roomy.Cut(), free.Cut())
	}
}

// A context cancelled before the run starts skips coarsening entirely
// but still solves and balances the (original) graph.
func TestMultilevelPreCancelledContext(t *testing.T) {
	g := cancelTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := &MultilevelOptions{Control: runctl.FromContext(ctx)}
	b, err := Multilevel(g, opts, cancelInitial, cancelRefine, rng.NewFib(6))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b == nil || b.Graph() != g {
		t.Fatal("cancelled run did not return a bisection of g")
	}
	if verr := b.Validate(); verr != nil {
		t.Fatal(verr)
	}
	if imb := b.Imbalance(); imb > g.TotalVertexWeight()%2 {
		t.Fatalf("imbalance %d after pre-cancelled run", imb)
	}
}
