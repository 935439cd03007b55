package kl

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace fixtures")

// traceGraph builds a fixed 16-vertex graph (two dense clusters joined
// by two bridges) so the golden trace is independent of the generators.
func traceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(16)
	for c := int32(0); c < 2; c++ {
		base := 8 * c
		for i := base; i < base+8; i++ {
			for j := i + 1; j < base+8; j++ {
				if (i+j)%3 != 0 { // sparsify deterministically
					b.AddEdge(i, j)
				}
			}
		}
	}
	b.AddEdge(0, 8)
	b.AddEdge(7, 15)
	return b.MustBuild()
}

// TestTraceGoldenJSONL locks the KL event stream for one seeded run: the
// JSONL serialization of a trace is part of the observability contract
// (docs/OBSERVABILITY.md), so any change to the schema or the emission
// points must show up as a diff of this fixture. Regenerate with
// `go test ./internal/kl -run TraceGolden -update`.
func TestTraceGoldenJSONL(t *testing.T) {
	g := traceGraph(t)
	run := func() []byte {
		var buf bytes.Buffer
		obs := trace.NewJSONL(&buf)
		if _, _, err := Run(g, Options{Observer: obs}, rng.NewFib(42)); err != nil {
			t.Fatal(err)
		}
		if obs.Err() != nil {
			t.Fatal(obs.Err())
		}
		return buf.Bytes()
	}
	first := run()
	if !bytes.Equal(first, run()) {
		t.Fatal("identical seeds produced different JSONL event streams")
	}

	golden := filepath.Join("testdata", "kl_trace.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("trace diverged from golden fixture %s\n got:\n%s\nwant:\n%s\n(rerun with -update if the schema change is intentional)",
			golden, first, want)
	}
}

// TestObserverDoesNotChangeResult is the detach half of the
// observability contract: attaching an observer must not perturb the
// algorithm (observers never draw from the random stream).
func TestObserverDoesNotChangeResult(t *testing.T) {
	g := traceGraph(t)
	plain, plainStats, err := Run(g, Options{}, rng.NewFib(7))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	traced, tracedStats, err := Run(g, Options{Observer: rec}, rng.NewFib(7))
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
	if plainStats != tracedStats {
		t.Fatalf("observer changed the run stats: %+v vs %+v", plainStats, tracedStats)
	}
	if rec.Len() == 0 {
		t.Fatal("observer attached but no events recorded")
	}
}

// TestTraceEventsMatchStats cross-checks the event stream against the
// Stats totals: one pass_done per pass, a final run_done whose counters
// equal the Stats, and monotone non-increasing pass cuts.
func TestTraceEventsMatchStats(t *testing.T) {
	g := traceGraph(t)
	rec := trace.NewRecorder()
	b := partition.NewRandom(g, rng.NewFib(3))
	st, err := Refine(b, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	var passes int
	lastCut := st.InitialCut
	for _, e := range events {
		switch e.Type {
		case trace.TypePassDone:
			if e.Index != passes {
				t.Fatalf("pass_done index %d out of order (want %d)", e.Index, passes)
			}
			if e.Cut > lastCut {
				t.Fatalf("pass %d increased the cut: %d → %d", e.Index, lastCut, e.Cut)
			}
			lastCut = e.Cut
			passes++
		case trace.TypeMoveBatch:
			if e.Algo != "kl" {
				t.Fatalf("unexpected algo %q", e.Algo)
			}
		}
	}
	if passes != st.Passes {
		t.Fatalf("saw %d pass_done events, Stats.Passes = %d", passes, st.Passes)
	}
	last := events[len(events)-1]
	if last.Type != trace.TypeRunDone {
		t.Fatalf("last event is %s, want run_done", last.Type)
	}
	if last.Cut != st.FinalCut || last.Moves != st.Swaps || last.Scanned != st.ScannedPairs || last.Index != st.Passes {
		t.Fatalf("run_done %+v disagrees with stats %+v", last, st)
	}
	if last.Gain != st.InitialCut-st.FinalCut {
		t.Fatalf("run_done gain %d, want %d", last.Gain, st.InitialCut-st.FinalCut)
	}
}
