package harness

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

func traceTable() Table {
	spec := func(label string, n int) GraphSpec {
		return GraphSpec{
			Label:     label,
			Expected:  -1,
			Instances: 2,
			Generate: func(r *rng.Rand) (*graph.Graph, error) {
				return gen.GNP(n, 0.04, r)
			},
		}
	}
	return Table{ID: "TR", Title: "trace test", Specs: []GraphSpec{spec("n=100", 100), spec("n=140", 140)}}
}

// TestRunObserverSameSeedIdentical is the harness half of the
// determinism contract: two runs of one seed deliver the same JSONL byte
// stream — and the same table results.
func TestRunObserverSameSeedIdentical(t *testing.T) {
	run := func() ([]byte, *TableResult) {
		var buf bytes.Buffer
		obs := trace.NewJSONL(&buf)
		cfg := Config{
			Seed:       7,
			Algorithms: []core.Bisector{core.KL{}, core.Compacted{Inner: core.KL{}}},
			Observer:   obs,
		}
		res, err := Run(traceTable(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if obs.Err() != nil {
			t.Fatal(obs.Err())
		}
		return buf.Bytes(), res
	}
	firstStream, firstRes := run()
	secondStream, secondRes := run()
	if !bytes.Equal(firstStream, secondStream) {
		t.Fatalf("two runs of one seed delivered different event streams:\nfirst:\n%s\nsecond:\n%s", firstStream, secondStream)
	}
	if len(firstStream) == 0 {
		t.Fatal("no events delivered")
	}
	for i := range firstRes.Rows {
		for name, cell := range firstRes.Rows[i].Cells {
			if secondRes.Rows[i].Cells[name].Cut != cell.Cut {
				t.Fatalf("row %d alg %s: cuts differ between two runs of one seed", i, name)
			}
		}
	}
}

// TestRunObserverEventShape checks the harness stamps: every event
// carries its row label, and each (algorithm, instance) contributes one
// harness-phase run_done whose cut matches the table's accounting.
func TestRunObserverEventShape(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := Config{
		Seed:       7,
		Algorithms: []core.Bisector{core.KL{}},
		Observer:   rec,
	}
	tbl := traceTable()
	if _, err := Run(tbl, cfg); err != nil {
		t.Fatal(err)
	}
	labels := map[string]int{}
	harnessDone := 0
	for _, e := range rec.Events() {
		if e.Label == "" {
			t.Fatalf("event missing its row label: %+v", e)
		}
		labels[e.Label]++
		if e.Phase == "harness" {
			if e.Type != trace.TypeRunDone {
				t.Fatalf("harness phase on non-run_done event: %+v", e)
			}
			harnessDone++
		}
	}
	for _, spec := range tbl.Specs {
		if labels[spec.Label] == 0 {
			t.Fatalf("no events for row %q", spec.Label)
		}
	}
	// 2 rows × 2 instances × 1 algorithm.
	if harnessDone != 4 {
		t.Fatalf("saw %d harness run_done events, want 4", harnessDone)
	}
}

// TestRunWithoutObserverUnchanged guards the nil fast path at the
// harness level: results are identical with and without an observer.
func TestRunWithoutObserverUnchanged(t *testing.T) {
	cfg := Config{Seed: 7, Algorithms: []core.Bisector{core.KL{}}}
	plain, err := Run(traceTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = trace.NewRecorder()
	traced, err := Run(traceTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Rows {
		for name, cell := range plain.Rows[i].Cells {
			if traced.Rows[i].Cells[name].Cut != cell.Cut {
				t.Fatalf("row %d alg %s: observer changed the cut", i, name)
			}
		}
	}
}
