package anneal

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sa_golden.json from the current implementation")

// goldenCase is one (graph, schedule, seed) combination pinned by the
// fixture. The cases cover both acceptance rules the hot loop branches
// on, so a change to any of the accept, cost, or best-tracking paths
// shows up as a fixture mismatch.
type goldenCase struct {
	Name string
	g    *graph.Graph
	opts Options
	seed uint64
}

// goldenRecord is what the fixture stores per case: the final cut, the
// full Stats struct, an FNV-1a hash of the final side assignment, and an
// FNV-1a hash of the trace event stream (with the wall-clock ElapsedNS
// fields zeroed — everything else in an event is deterministic).
type goldenRecord struct {
	Name      string  `json:"name"`
	Cut       int64   `json:"cut"`
	Temps     int     `json:"temperatures"`
	Trials    int64   `json:"trials"`
	Accepted  int64   `json:"accepted"`
	StartTemp float64 `json:"start_temp"`
	FinalTemp float64 `json:"final_temp"`
	SidesHash uint64  `json:"sides_hash"`
	TraceHash uint64  `json:"trace_hash"`
}

func goldenCases() []goldenCase {
	mk := func(name string, g *graph.Graph, err error, opts Options, seed uint64) goldenCase {
		if err != nil {
			panic(err)
		}
		return goldenCase{Name: name, g: g, opts: opts, seed: seed}
	}
	gnp, gnpErr := gen.GNP(120, 0.05, rng.NewFib(11))
	grid, gridErr := gen.Grid(12, 12)
	return []goldenCase{
		mk("gnp120_metropolis_geometric", gnp, gnpErr,
			Options{SizeFactor: 2, TempFactor: 0.8, FreezeLim: 2, MaxTemps: 40}, 5),
		mk("grid144_threshold_geometric", grid, gridErr,
			Options{SizeFactor: 2, TempFactor: 0.8, FreezeLim: 2, MaxTemps: 40, Acceptance: AcceptThreshold}, 29),
	}
}

// runGoldenCase executes one fixture case and reduces it to a record.
func runGoldenCase(c goldenCase, opts Options) (goldenRecord, error) {
	rec := trace.NewRecorder()
	opts.Observer = rec
	b, st, err := Run(c.g, opts, rng.NewFib(c.seed))
	if err != nil {
		return goldenRecord{}, err
	}
	sh := fnv.New64a()
	sh.Write(b.SidesRef())
	th := fnv.New64a()
	for _, e := range rec.Events() {
		e.ElapsedNS = 0
		th.Write([]byte(capturedFormat(e)))
	}
	return goldenRecord{
		Name:      c.Name,
		Cut:       b.Cut(),
		Temps:     st.Temperatures,
		Trials:    st.Trials,
		Accepted:  st.Accepted,
		StartTemp: st.StartTemp,
		FinalTemp: st.FinalTemp,
		SidesHash: sh.Sum64(),
		TraceHash: th.Sum64(),
	}, nil
}

// capturedFormat prints e with %+v as it printed when the fixture was
// captured. trace.Event has since gained Tentative, which SA never sets;
// its zero value is left out, and a nonzero one stays in the hashed
// bytes and fails the comparison.
func capturedFormat(e trace.Event) string {
	return strings.Replace(fmt.Sprintf("%+v\n", e), " Tentative:0 ", " ", 1)
}

// TestGoldenSeedDeterminism pins the full observable behavior of SA —
// final cuts, schedule statistics, side assignments, and trace event
// streams — to a committed fixture. The fixture was captured before the
// workspace/exp-table/undo-log overhaul, so passing it proves the
// optimized path reproduces the original implementation bit for bit;
// TestPlainOracleMatchesRefine holds it to the plain Figure 1 oracle.
func TestGoldenSeedDeterminism(t *testing.T) {
	path := filepath.Join("testdata", "sa_golden.json")
	if *updateGolden {
		var recs []goldenRecord
		for _, c := range goldenCases() {
			r, err := runGoldenCase(c, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("fixture has %d records for %d cases; rerun with -update", len(want), len(cases))
	}
	for i, c := range cases {
		got, err := runGoldenCase(c, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got != want[i] {
			t.Errorf("%s:\n got %+v\nwant %+v", c.Name, got, want[i])
		}
	}
}

// TestGoldenWorkspaceReuse runs all fixture cases through one shared
// Refiner (the multi-chain steady state) and requires the same records:
// workspaces carry no state between runs.
func TestGoldenWorkspaceReuse(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sa_golden.json"))
	if err != nil {
		t.Skip("fixture not yet captured")
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	ws := NewRefiner()
	for round := 0; round < 2; round++ {
		for i, c := range goldenCases() {
			opts := c.opts
			opts.Workspace = ws
			got, err := runGoldenCase(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("round %d, %s with shared workspace:\n got %+v\nwant %+v", round, c.Name, got, want[i])
			}
		}
	}
}
