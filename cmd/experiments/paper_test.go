//go:build !race

// The paper reproduction runs on one goroutine, so the race detector has
// nothing to check in it, and a race build would multiply its running
// time several times over.

package main

import (
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestPaperReproduction regenerates the paper's evaluation at paper
// scale through the command line and compares it with the committed
// results: every table's title, columns and rows, every cell's Cut and
// CutStd, every row's compaction improvement, and the O1–O5 verdicts.
// Times (Seconds, SpeedUp, the timing text in verdict lines) vary by
// machine and are left out. A change that moves a paper cut fails here
// until results/ is regenerated with it (EXPERIMENTS.md).
func TestPaperReproduction(t *testing.T) {
	savedArgs, savedStdout := os.Args, os.Stdout
	t.Cleanup(func() { os.Args, os.Stdout = savedArgs, savedStdout })
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout = devNull

	dir := t.TempDir()
	jsonDir := filepath.Join(dir, "json")
	if err := runArgs("-table", "all", "-scale", "paper", "-json", jsonDir); err != nil {
		t.Fatal(err)
	}
	want, got := readResults(t, "../../results/json"), readResults(t, jsonDir)
	if len(got) != len(want) {
		t.Errorf("%d tables, committed %d", len(got), len(want))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok {
			t.Errorf("%s: not regenerated", id)
		} else {
			compareTable(t, id, g, w)
		}
	}

	obsPath := filepath.Join(dir, "observations.txt")
	if err := runArgs("-observations", "-scale", "paper", "-out", obsPath); err != nil {
		t.Fatal(err)
	}
	wantTags, gotTags := verdicts(t, "../../results/observations_paper.txt"), verdicts(t, obsPath)
	if len(wantTags) != 5 || !slices.Equal(gotTags, wantTags) {
		t.Errorf("observation verdicts: got %q, committed %q", gotTags, wantTags)
	}
}

// readResults reads every <ID>.json in dir, keyed by file name.
func readResults(t *testing.T, dir string) map[string]*harness.TableResult {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no JSON results in %s (%v)", dir, err)
	}
	out := map[string]*harness.TableResult{}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[strings.TrimSuffix(filepath.Base(p), ".json")] = res
	}
	return out
}

func compareTable(t *testing.T, id string, got, want *harness.TableResult) {
	t.Helper()
	if got.ID != want.ID || got.Title != want.Title || !slices.Equal(got.Algorithms, want.Algorithms) {
		t.Errorf("%s: header (%s, %q, %v), committed (%s, %q, %v)",
			id, got.ID, got.Title, got.Algorithms, want.ID, want.Title, want.Algorithms)
		return
	}
	if len(got.Rows) != len(want.Rows) {
		t.Errorf("%s: %d rows, committed %d", id, len(got.Rows), len(want.Rows))
		return
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.Label != w.Label || g.Expected != w.Expected {
			t.Errorf("%s row %d: (%q, %d), committed (%q, %d)", id, i, g.Label, g.Expected, w.Label, w.Expected)
			continue
		}
		if !maps.Equal(g.CutImprovement, w.CutImprovement) {
			t.Errorf("%s %s: CutImprovement %v, committed %v", id, w.Label, g.CutImprovement, w.CutImprovement)
		}
		for _, alg := range want.Algorithms {
			gc, wc := g.Cells[alg], w.Cells[alg]
			if gc.Cut != wc.Cut || gc.CutStd != wc.CutStd {
				t.Errorf("%s %s %s: cut %v ± %v, committed %v ± %v", id, w.Label, alg, gc.Cut, gc.CutStd, wc.Cut, wc.CutStd)
			}
		}
	}
}

var verdictRE = regexp.MustCompile(`O[1-5] \[(?:HOLDS|FAILS)\]`)

// verdicts lists the "O<n> [HOLDS]" / "O<n> [FAILS]" tags of an
// observations report in order.
func verdicts(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return verdictRE.FindAllString(string(data), -1)
}
