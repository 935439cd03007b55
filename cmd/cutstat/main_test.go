package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// runCutstat runs the command on args and returns what it printed to
// stdout with its error.
func runCutstat(t *testing.T, args ...string) (string, error) {
	t.Helper()
	savedArgs, savedStdout := os.Args, os.Stdout
	t.Cleanup(func() { os.Args, os.Stdout = savedArgs, savedStdout })
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	os.Stdout = stdout
	flag.CommandLine = flag.NewFlagSet("cutstat", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"cutstat"}, args...)
	runErr := run()
	os.Stdout = savedStdout
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// writeFile writes text to a fresh file under t's temp directory.
func writeFile(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sidesText renders side in cmd/bisect's -out format.
func sidesText(side []uint8) string {
	var sb strings.Builder
	for v, s := range side {
		fmt.Fprintf(&sb, "%d %d\n", v, s)
	}
	return sb.String()
}

// The printed cut is the cut of the sides file, recomputed by
// partition.CutOf, for the sides of a ckl run on the sample graph.
func TestCutMatchesCutOf(t *testing.T) {
	const graphPath = "../../testdata/breg200.el"
	f, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ckl, err := core.New("ckl")
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.BestOf{Inner: ckl, Starts: 2}.Bisect(g, rng.NewFib(1989))
	if err != nil {
		t.Fatal(err)
	}
	side := make([]uint8, g.N())
	for v := range side {
		side[v] = b.Side(int32(v))
	}
	out, err := runCutstat(t, "-graph", graphPath, "-sides", writeFile(t, "sides.txt", sidesText(side)))
	if err != nil {
		t.Fatal(err)
	}
	var printed int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "cut: "); ok {
			if printed, err = strconv.ParseInt(rest, 10, 64); err != nil {
				t.Fatalf("cut line %q: %v", line, err)
			}
		}
	}
	if want := partition.CutOf(g, side); printed != want {
		t.Fatalf("printed cut %d, partition.CutOf gives %d; output:\n%s", printed, want, out)
	}
}

// A sides file must name every vertex of the graph exactly once, with
// side 0 or 1.
func TestBadSidesFileRejected(t *testing.T) {
	graphPath := writeFile(t, "path4.el", "graph 4 3\ne 0 1\ne 1 2\ne 2 3\n")
	for _, tc := range []struct{ name, sides, want string }{
		{"duplicate vertex", "0 0\n0 1\n1 0\n2 1\n3 1\n", "duplicate vertex 0"},
		{"missing vertex", "0 0\n1 0\n2 1\n", "missing vertex 3"},
		{"out-of-range vertex", "0 0\n1 0\n2 1\n3 1\n4 0\n", "invalid record"},
		{"side 2", "0 0\n1 0\n2 1\n3 2\n", "invalid record"},
	} {
		_, err := runCutstat(t, "-graph", graphPath, "-sides", writeFile(t, "sides.txt", tc.sides))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// On the paper's 3N ladder the Fiedler solve does not converge. An
// unconverged λ₂ estimate lies above λ₂, so λ₂·n/4 from it is no lower
// bound: -bound must fail and print none.
func TestBoundNotConvergedPrintsNoBound(t *testing.T) {
	g, err := gen.Ladder3N(334)
	if err != nil {
		t.Fatal(err)
	}
	var el strings.Builder
	if err := graph.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	side := make([]uint8, g.N())
	for v := g.N() / 2; v < g.N(); v++ {
		side[v] = 1
	}
	out, err := runCutstat(t, "-graph", writeFile(t, "ladder.el", el.String()),
		"-sides", writeFile(t, "sides.txt", sidesText(side)), "-bound")
	if err == nil || !strings.Contains(err.Error(), "not converged") {
		t.Fatalf("err = %v, want the spectral solver's non-convergence error", err)
	}
	if strings.Contains(out, "lower bound") {
		t.Fatalf("printed a bound from an unconverged solve:\n%s", out)
	}
}

// A BCSR image of a graph is checked like its edge list: for the same
// sides, -graph g.csr prints what -graph g.el prints, cut line included.
func TestBCSRGraphPrintsSameCut(t *testing.T) {
	const graphPath = "../../testdata/breg200.el"
	f, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	csr, err := os.Create(filepath.Join(t.TempDir(), "g.csr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSRFile(csr, g); err != nil {
		t.Fatal(err)
	}
	if err := csr.Close(); err != nil {
		t.Fatal(err)
	}
	side := make([]uint8, g.N())
	for v := range side {
		side[v] = uint8(v % 2)
	}
	sides := writeFile(t, "sides.txt", sidesText(side))
	fromEL, err := runCutstat(t, "-graph", graphPath, "-sides", sides)
	if err != nil {
		t.Fatal(err)
	}
	fromCSR, err := runCutstat(t, "-graph", csr.Name(), "-sides", sides)
	if err != nil {
		t.Fatal(err)
	}
	if fromCSR != fromEL || !strings.Contains(fromEL, fmt.Sprintf("cut: %d\n", partition.CutOf(g, side))) {
		t.Fatalf("-graph g.csr printed\n%s\n-graph g.el printed\n%s", fromCSR, fromEL)
	}
}
