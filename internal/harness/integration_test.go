package harness

import (
	"bytes"
	"testing"
)

// TestFullSuiteAtTestScale runs every table of the paper suite end to end
// at miniature scale — the same code path cmd/experiments exercises at
// paper scale — and sanity-checks structural properties of each result.
func TestFullSuiteAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	cfg := Config{Seed: 3, Starts: 2, SAOpts: fastSA()}
	for _, table := range AllTables(TestScale()) {
		res, err := Run(table, cfg)
		if err != nil {
			t.Fatalf("%s: %v", table.ID, err)
		}
		if len(res.Rows) != len(table.Specs) {
			t.Fatalf("%s: %d rows for %d specs", table.ID, len(res.Rows), len(table.Specs))
		}
		for _, row := range res.Rows {
			for _, name := range res.Algorithms {
				cell, ok := row.Cells[name]
				if !ok {
					t.Fatalf("%s %s: missing %s", table.ID, row.Label, name)
				}
				if cell.Cut < 0 {
					t.Fatalf("%s %s %s: negative cut", table.ID, row.Label, name)
				}
				// No algorithm may beat a known planted/structural width.
				if row.Expected > 0 && table.ID[1] == 'B' && cell.Cut < float64(row.Expected) {
					// 𝒢breg planted width is whp the true optimum; a cut
					// below it would indicate an unbalanced result or a
					// cut-accounting bug. (𝒢2set at low degree can
					// legitimately dip below bis; 𝒢breg cannot, except for
					// the measure-zero failure of the whp statement at
					// miniature sizes, which fixed seeds make stable.)
					t.Fatalf("%s %s %s: cut %.1f below planted width %d",
						table.ID, row.Label, name, cell.Cut, row.Expected)
				}
			}
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatalf("%s: render: %v", table.ID, err)
		}
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: json: %v", table.ID, err)
		}
	}
}

// TestObservationPipelineAtTestScale runs the observation set end to end.
func TestObservationPipelineAtTestScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	cfg := Config{Seed: 4, Starts: 2, SAOpts: fastSA()}
	scale := TestScale()
	run := func(id string) *TableResult {
		table, ok := TableByID(scale, id)
		if !ok {
			t.Fatalf("missing table %s", id)
		}
		res, err := Run(table, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	d3 := run("T0B3")
	d4 := run("T0B4")
	special := []*TableResult{run("TG"), run("TL"), run("TB")}
	findings := []Finding{
		Observation1(d3, d4),
		Observation2(d3),
		Observation3(special),
		Observation4([]*TableResult{d3, d4}, special[2], special[1]),
		Observation5([]*TableResult{d3, d4}),
	}
	for _, f := range findings {
		if f.ID == "" || f.Claim == "" || f.Detail == "" {
			t.Fatalf("degenerate finding %+v", f)
		}
		t.Logf("%s", f)
	}
}
