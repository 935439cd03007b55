package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestRepairBalanceFromExtremes(t *testing.T) {
	g := mustGraph(gen.Grid(6, 6))
	b, err := New(g, make([]uint8, 36))
	if err != nil {
		t.Fatal(err)
	}
	if got := RepairBalance(b); got != 0 {
		t.Fatalf("imbalance %d after repair", got)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Repairing an already-balanced bisection is a no-op.
	cut := b.Cut()
	RepairBalance(b)
	if b.Cut() != cut {
		t.Fatal("no-op repair changed the cut")
	}
}

func TestRepairBalanceStuckOnHeavyVertices(t *testing.T) {
	// Heavy side holds only weight-5 vertices; imbalance 4 < 5 cannot be
	// strictly reduced by any single move, so repair must stop (not spin).
	bld := graph.NewBuilder(3)
	bld.AddEdge(0, 1)
	bld.SetVertexWeight(0, 5)
	bld.SetVertexWeight(1, 5)
	bld.SetVertexWeight(2, 6)
	g := bld.MustBuild()
	b, err := New(g, []uint8{0, 0, 1}) // weights 10 vs 6
	if err != nil {
		t.Fatal(err)
	}
	got := RepairBalance(b)
	if got != 4 {
		t.Fatalf("expected repair to stop at imbalance 4, got %d", got)
	}
}

func TestRepairBalancePropertyNeverWorsens(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 4 + r.Intn(30)
		g, err := gen.GNP(n, 0.2, r)
		if err != nil {
			return false
		}
		side := make([]uint8, n)
		for i := range side {
			if r.Bool() {
				side[i] = 1
			}
		}
		b, err := New(g, side)
		if err != nil {
			return false
		}
		before := b.Imbalance()
		after := RepairBalance(b)
		return after <= before && b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBisectionAccessors(t *testing.T) {
	g := mustGraph(gen.Path(4))
	b, err := New(g, []uint8{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Graph() != g {
		t.Fatal("Graph accessor wrong")
	}
	if b.N() != 4 {
		t.Fatalf("N = %d", b.N())
	}
	sides := b.Sides()
	sides[0] = 1
	if b.Side(0) != 0 {
		t.Fatal("Sides returned aliased storage")
	}
}
