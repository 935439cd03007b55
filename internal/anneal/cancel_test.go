package anneal

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
)

// A checkpoint budget of k must be indistinguishable from MaxTemps = k:
// the temperature loop consumes the same random stream, the epilogue
// adopts the same best-seen state and repairs balance the same way, so
// sides and cut match exactly — the only difference is the stop
// sentinel. Exercises every checkpoint index up to the natural
// temperature count.
func TestControlBudgetEqualsMaxTemps(t *testing.T) {
	g, err := gen.GNP(60, 0.12, rng.NewFib(23))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{SizeFactor: 4, TempFactor: 0.8, FreezeLim: 3, MaxTemps: 200}
	full := partition.NewRandom(g, rng.NewFib(7))
	fullStats, err := Refine(full, base, rng.NewFib(11))
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.Temperatures < 3 {
		t.Fatalf("want a multi-temperature run to cancel into, got %d", fullStats.Temperatures)
	}
	for k := 1; k <= fullStats.Temperatures; k++ {
		capOpts := base
		capOpts.MaxTemps = k
		capped := partition.NewRandom(g, rng.NewFib(7))
		if _, err := Refine(capped, capOpts, rng.NewFib(11)); err != nil {
			t.Fatal(err)
		}
		budOpts := base
		budOpts.Control = runctl.WithBudget(int64(k))
		budgeted := partition.NewRandom(g, rng.NewFib(7))
		st, err := Refine(budgeted, budOpts, rng.NewFib(11))
		if k < fullStats.Temperatures {
			if !errors.Is(err, runctl.ErrBudgetExceeded) {
				t.Fatalf("budget %d: err = %v, want ErrBudgetExceeded", k, err)
			}
		} else if err != nil {
			// The run froze before the budget ran out.
			t.Fatalf("budget %d: unexpected err %v", k, err)
		}
		if err := budgeted.Validate(); err != nil {
			t.Fatalf("budget %d: invalid bisection: %v", k, err)
		}
		if st.Temperatures != k && err != nil {
			t.Fatalf("budget %d ran %d temperatures", k, st.Temperatures)
		}
		if budgeted.Cut() != capped.Cut() || !bytes.Equal(budgeted.SidesRef(), capped.SidesRef()) {
			t.Fatalf("budget %d diverges from MaxTemps=%d: cut %d vs %d", k, k, budgeted.Cut(), capped.Cut())
		}
	}
}

// A run cancelled at any checkpoint still ends balanced: the stop path
// goes through the same adopt-best-and-rebalance epilogue as a frozen
// run.
func TestCancelledRunIsBalanced(t *testing.T) {
	g, err := gen.GNP(50, 0.15, rng.NewFib(31))
	if err != nil {
		t.Fatal(err)
	}
	tol := g.TotalVertexWeight() % 2
	for k := int64(1); k <= 6; k++ {
		b := partition.NewRandom(g, rng.NewFib(8))
		opts := Options{SizeFactor: 4, TempFactor: 0.8, FreezeLim: 3, MaxTemps: 200, Control: runctl.WithBudget(k)}
		if _, err := Refine(b, opts, rng.NewFib(9)); err != nil && !runctl.IsStop(err) {
			t.Fatal(err)
		}
		if imb := b.Imbalance(); imb > tol {
			t.Fatalf("budget %d: imbalance %d > %d after cancel", k, imb, tol)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("budget %d: %v", k, err)
		}
	}
}

// A context cancelled before the run starts must still return a valid
// balanced bisection (the epilogue runs) with the context's error.
func TestPreCancelledContextStillBalances(t *testing.T) {
	g, err := gen.GNP(40, 0.2, rng.NewFib(2))
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, rng.NewFib(3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{SizeFactor: 4, TempFactor: 0.8, FreezeLim: 3, MaxTemps: 200, Control: runctl.FromContext(ctx)}
	st, err := Refine(b, opts, rng.NewFib(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Temperatures != 0 {
		t.Fatalf("cancelled run annealed %d temperatures", st.Temperatures)
	}
	if imb := b.Imbalance(); imb > g.TotalVertexWeight()%2 {
		t.Fatalf("imbalance %d after pre-cancelled run", imb)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}
