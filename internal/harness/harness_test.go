package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/anneal"
	"repro/internal/core"
)

// fastSA keeps harness tests quick.
func fastSA() anneal.Options {
	return anneal.Options{SizeFactor: 2, TempFactor: 0.85, FreezeLim: 2, MaxTemps: 60}
}

func fastConfig() Config {
	return Config{Seed: 7, Starts: 2, SAOpts: fastSA()}
}

func TestRunSmallBRegTable(t *testing.T) {
	table := BRegTable(120, 3, []int{2, 6}, 2)
	res, err := Run(table, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	if len(res.Algorithms) != 4 {
		t.Fatalf("algorithms %v", res.Algorithms)
	}
	for _, row := range res.Rows {
		for _, name := range []string{"sa", "csa", "kl", "ckl"} {
			cell, ok := row.Cells[name]
			if !ok {
				t.Fatalf("row %s missing cell %s", row.Label, name)
			}
			if cell.Cut < 0 || cell.Seconds < 0 {
				t.Fatalf("row %s cell %s: %+v", row.Label, name, cell)
			}
			// A heuristic can never beat 0, and on these tiny graphs the
			// cut can't exceed every edge.
			if cell.Cut > 200 {
				t.Fatalf("row %s cell %s: absurd cut %v", row.Label, name, cell.Cut)
			}
		}
		if _, ok := row.CutImprovement["kl"]; !ok {
			t.Fatal("missing kl improvement column")
		}
		if _, ok := row.SpeedUp["sa"]; !ok {
			t.Fatal("missing sa speed-up column")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	table := BRegTable(80, 3, []int{4}, 1)
	cfg := Config{Seed: 11, Starts: 2, Algorithms: []core.Bisector{core.KL{}, core.Compacted{Inner: core.KL{}}}}
	a, err := Run(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].Cells["kl"].Cut != b.Rows[0].Cells["kl"].Cut ||
		a.Rows[0].Cells["ckl"].Cut != b.Rows[0].Cells["ckl"].Cut {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Rows[0].Cells, b.Rows[0].Cells)
	}
}

func TestRunSeedChangesResults(t *testing.T) {
	table := GnpTable(100, []float64{3.0}, 2)
	cfg1 := Config{Seed: 1, Algorithms: []core.Bisector{core.Random{}}}
	cfg2 := Config{Seed: 2, Algorithms: []core.Bisector{core.Random{}}}
	a, err := Run(table, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(table, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0].Cells["random"].Cut == b.Rows[0].Cells["random"].Cut {
		t.Log("cut coincidence across seeds (possible but unlikely); not failing")
	}
}

func TestRunPropagatesGeneratorErrors(t *testing.T) {
	// Infeasible parameters: BReg(10, b=7, d=3) has b > n = 5, so the
	// generator errors and Run must surface it with row context.
	bad := BRegTable(10, 3, []int{7}, 1)
	if _, err := Run(bad, fastConfig()); err == nil {
		t.Fatal("generator error swallowed")
	}
	// A nil generator is reported, not a panic.
	nilGen := Table{ID: "X", Title: "bad", Specs: []GraphSpec{{Label: "boom", Instances: 1}}}
	if _, err := Run(nilGen, fastConfig()); err == nil {
		t.Fatal("nil generator accepted")
	}
}

func TestCompactionHelpsOnSparseBReg(t *testing.T) {
	// The repository's headline claim at miniature scale: on degree-3
	// planted graphs, CKL's cut is no worse than KL's on average.
	table := BRegTable(300, 3, []int{4}, 3)
	res, err := Run(table, Config{Seed: 5, Algorithms: []core.Bisector{
		core.KL{}, core.Compacted{Inner: core.KL{}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Cells["ckl"].Cut > row.Cells["kl"].Cut {
		t.Fatalf("compaction hurt: ckl %.1f vs kl %.1f", row.Cells["ckl"].Cut, row.Cells["kl"].Cut)
	}
}

func TestRenderContainsColumns(t *testing.T) {
	table := BRegTable(80, 3, []int{4}, 1)
	res, err := Run(table, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bsa", "bcsa", "bkl", "bckl", "impr%", "spdup%", "b=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderSummary(t *testing.T) {
	table := GridTable([]int{6})
	res, err := Run(table, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSummary(&buf, "Table 1", []*TableResult{res}, []string{"kl", "sa"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Grid graphs") {
		t.Fatalf("summary missing title:\n%s", buf.String())
	}
}

func TestAllTablesPaperScaleShape(t *testing.T) {
	tables := AllTables(PaperScale())
	// 3 special + 2 sizes × (4 twoset + 1 gnp + 2 breg) = 17.
	if len(tables) != 17 {
		t.Fatalf("paper suite has %d tables, want 17", len(tables))
	}
	ids := map[string]bool{}
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Specs) == 0 {
			t.Fatalf("degenerate table %+v", tb)
		}
		if ids[tb.ID] {
			t.Fatalf("duplicate table ID %s", tb.ID)
		}
		ids[tb.ID] = true
	}
	for _, want := range []string{"TL", "TG", "TB", "T2S25", "T2S40", "T2NP", "T2B3", "T2B4", "T5S25", "T5NP", "T5B3", "T5B4"} {
		if !ids[want] {
			t.Fatalf("missing table %s; have %v", want, ids)
		}
	}
}

func TestTableByID(t *testing.T) {
	if _, ok := TableByID(TestScale(), "TL"); !ok {
		t.Fatal("TL not found")
	}
	if _, ok := TableByID(TestScale(), "NOPE"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestMeanHelpers(t *testing.T) {
	tr := &TableResult{Rows: []RowResult{
		{Cells: map[string]Cell{"kl": {Cut: 10, Seconds: 1}}, CutImprovement: map[string]float64{"kl": 50}},
		{Cells: map[string]Cell{"kl": {Cut: 20, Seconds: 3}}, CutImprovement: map[string]float64{"kl": 70}},
	}}
	if got := tr.MeanCut("kl"); got != 15 {
		t.Fatalf("MeanCut %v", got)
	}
	if got := tr.MeanSeconds("kl"); got != 2 {
		t.Fatalf("MeanSeconds %v", got)
	}
	if got := tr.MeanImprovement("kl"); got != 60 {
		t.Fatalf("MeanImprovement %v", got)
	}
	if got := tr.MeanCut("absent"); got != 0 {
		t.Fatalf("absent MeanCut %v", got)
	}
}

// Synthetic TableResults for deterministic observation-logic tests.
func synthetic(id string, rows []RowResult) *TableResult {
	return &TableResult{ID: id, Title: id, Rows: rows}
}

func row(expected int64, cuts map[string]float64, secs map[string]float64) RowResult {
	r := RowResult{Expected: expected, Cells: map[string]Cell{},
		CutImprovement: map[string]float64{}, SpeedUp: map[string]float64{}}
	for k, v := range cuts {
		r.Cells[k] = Cell{Cut: v, Seconds: secs[k]}
	}
	for k, cell := range r.Cells {
		if comp, ok := r.Cells["c"+k]; ok {
			if cell.Cut > 0 {
				r.CutImprovement[k] = (cell.Cut - comp.Cut) / cell.Cut * 100
			}
			if cell.Seconds > 0 {
				r.SpeedUp[k] = (cell.Seconds - comp.Seconds) / cell.Seconds * 100
			}
		}
	}
	return r
}

func TestObservation1Logic(t *testing.T) {
	d3 := synthetic("T5B3", []RowResult{row(4,
		map[string]float64{"kl": 120, "sa": 150}, map[string]float64{"kl": 1, "sa": 10})})
	d4 := synthetic("T5B4", []RowResult{row(4,
		map[string]float64{"kl": 4, "sa": 4}, map[string]float64{"kl": 1, "sa": 10})})
	f := Observation1(d3, d4)
	if !f.Holds {
		t.Fatalf("O1 should hold: %s", f)
	}
	// Reversed: degree 4 worse than degree 3.
	g := Observation1(d4, d3)
	if g.Holds {
		t.Fatalf("O1 should fail when reversed: %s", g)
	}
}

func TestObservation2Logic(t *testing.T) {
	d3 := synthetic("T5B3", []RowResult{row(4,
		map[string]float64{"kl": 100, "ckl": 5, "sa": 120, "csa": 8},
		map[string]float64{"kl": 3, "ckl": 1, "sa": 30, "csa": 28})})
	f := Observation2(d3)
	if !f.Holds {
		t.Fatalf("O2 should hold: %s", f)
	}
	weak := synthetic("T5B3", []RowResult{row(4,
		map[string]float64{"kl": 10, "ckl": 9, "sa": 10, "csa": 9},
		map[string]float64{"kl": 3, "ckl": 1, "sa": 30, "csa": 28})})
	if Observation2(weak).Holds {
		t.Fatal("O2 should fail on 10% improvements")
	}
}

func TestObservation3Logic(t *testing.T) {
	good := []*TableResult{
		synthetic("TG", []RowResult{row(8, map[string]float64{"kl": 10, "ckl": 8, "sa": 12, "csa": 9}, map[string]float64{"kl": 1, "ckl": 1, "sa": 1, "csa": 1})}),
	}
	if f := Observation3(good); !f.Holds {
		t.Fatalf("O3 should hold: %s", f)
	}
	bad := []*TableResult{
		synthetic("TG", []RowResult{row(8, map[string]float64{"kl": 8, "ckl": 10, "sa": 12, "csa": 9}, map[string]float64{"kl": 1, "ckl": 1, "sa": 1, "csa": 1})}),
	}
	if f := Observation3(bad); f.Holds {
		t.Fatalf("O3 should fail when compaction hurts KL: %s", f)
	}
}

func TestObservation4Logic(t *testing.T) {
	random := []*TableResult{synthetic("T5B3", []RowResult{row(4,
		map[string]float64{"kl": 50, "sa": 60}, map[string]float64{"kl": 1, "sa": 20})})}
	trees := synthetic("TB", []RowResult{row(-1,
		map[string]float64{"kl": 30, "sa": 10}, map[string]float64{"kl": 1, "sa": 20})})
	ladders := synthetic("TL", []RowResult{row(2,
		map[string]float64{"kl": 12, "sa": 4}, map[string]float64{"kl": 1, "sa": 20})})
	if f := Observation4(random, trees, ladders); !f.Holds {
		t.Fatalf("O4 should hold: %s", f)
	}
	slowKL := []*TableResult{synthetic("T5B3", []RowResult{row(4,
		map[string]float64{"kl": 50, "sa": 60}, map[string]float64{"kl": 30, "sa": 20})})}
	if f := Observation4(slowKL, trees, ladders); f.Holds {
		t.Fatalf("O4 should fail when KL slower: %s", f)
	}
}

func TestObservation5Logic(t *testing.T) {
	random := []*TableResult{synthetic("T5B3", []RowResult{row(4,
		map[string]float64{"ckl": 5, "csa": 6}, map[string]float64{"ckl": 1, "csa": 8})})}
	if f := Observation5(random); !f.Holds {
		t.Fatalf("O5 should hold: %s", f)
	}
	divergent := []*TableResult{synthetic("T5B3", []RowResult{row(4,
		map[string]float64{"ckl": 5, "csa": 100}, map[string]float64{"ckl": 1, "csa": 8})})}
	if f := Observation5(divergent); f.Holds {
		t.Fatalf("O5 should fail on divergent quality: %s", f)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{ID: "O1", Claim: "c", Holds: true, Detail: "d"}
	if !strings.Contains(f.String(), "HOLDS") {
		t.Fatal("missing verdict")
	}
	f.Holds = false
	if !strings.Contains(f.String(), "FAILS") {
		t.Fatal("missing FAILS verdict")
	}
}
