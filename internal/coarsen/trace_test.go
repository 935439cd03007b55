package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestMultilevelLevelEvents checks the pipeline's level_done stream:
// coarsen events with shrinking vertex counts, one "initial" event for
// the coarsest solve, and one "uncoarsen" event per projection ending
// at the input graph's size — and that attaching the observer does not
// change the final bisection.
func TestMultilevelLevelEvents(t *testing.T) {
	g, err := gen.GNP(300, 0.03, rng.NewFib(23))
	if err != nil {
		t.Fatal(err)
	}
	initial := func(cg *graph.Graph, r *rng.Rand) *partition.Bisection { return partition.NewRandom(cg, r) }

	plain, err := Multilevel(g, nil, initial, nil, rng.NewFib(6))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	traced, err := Multilevel(g, &MultilevelOptions{Observer: rec}, initial, nil, rng.NewFib(6))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cut() != traced.Cut() {
		t.Fatalf("observer changed the cut: %d vs %d", plain.Cut(), traced.Cut())
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if plain.Side(v) != traced.Side(v) {
			t.Fatalf("observer changed the bisection at vertex %d", v)
		}
	}

	var coarsenN []int
	var initials, uncoarsens int
	lastVertices := 0
	for _, e := range rec.Events() {
		if e.Type != trace.TypeLevelDone {
			t.Fatalf("unexpected event type %s from the pipeline", e.Type)
		}
		switch e.Phase {
		case "coarsen":
			coarsenN = append(coarsenN, e.Vertices)
		case "initial":
			initials++
		case "uncoarsen":
			uncoarsens++
			lastVertices = e.Vertices
		default:
			t.Fatalf("unknown phase %q", e.Phase)
		}
	}
	if len(coarsenN) == 0 || initials != 1 || uncoarsens != len(coarsenN) {
		t.Fatalf("level structure off: %d coarsen, %d initial, %d uncoarsen", len(coarsenN), initials, uncoarsens)
	}
	for i := 1; i < len(coarsenN); i++ {
		if coarsenN[i] >= coarsenN[i-1] {
			t.Fatalf("coarsening did not shrink: level %d has %d vertices after %d", i, coarsenN[i], coarsenN[i-1])
		}
	}
	if lastVertices != g.N() {
		t.Fatalf("final uncoarsen reports %d vertices, want %d", lastVertices, g.N())
	}
}

// TestCompactOnceLevelEvents checks the single-level compaction trace:
// one coarsen event and one uncoarsen event back at full size.
func TestCompactOnceLevelEvents(t *testing.T) {
	g, err := gen.GNP(200, 0.04, rng.NewFib(29))
	if err != nil {
		t.Fatal(err)
	}
	initial := func(cg *graph.Graph, r *rng.Rand) *partition.Bisection { return partition.NewRandom(cg, r) }
	rec := trace.NewRecorder()
	b, err := NewWorkspace().CompactOnce(g, nil, initial, nil, rng.NewFib(8), rec)
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (coarsen + uncoarsen): %+v", len(events), events)
	}
	if events[0].Phase != "coarsen" || events[0].Vertices >= g.N() {
		t.Fatalf("bad coarsen event: %+v", events[0])
	}
	if events[1].Phase != "uncoarsen" || events[1].Vertices != g.N() || events[1].Cut != b.Cut() {
		t.Fatalf("bad uncoarsen event: %+v (cut %d)", events[1], b.Cut())
	}
}
