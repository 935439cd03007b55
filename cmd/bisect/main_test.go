package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestStartsBelowOneRejected pins the usage check on -starts: BestOf
// would run one start for any value below 1, so accepting one would
// report a run that never happened ("best of 0 starts").
func TestStartsBelowOneRejected(t *testing.T) {
	savedArgs := os.Args
	t.Cleanup(func() { os.Args = savedArgs })
	for _, starts := range []string{"0", "-3"} {
		flag.CommandLine = flag.NewFlagSet("bisect", flag.ContinueOnError)
		flag.CommandLine.SetOutput(io.Discard)
		os.Args = []string{"bisect", "-in", "../../testdata/breg200.el", "-starts", starts}
		if _, err := run(); err == nil {
			t.Errorf("-starts %s: run succeeded, want a usage error", starts)
		}
	}
}

// TestForgedAsymmetricBCSRRejected: the BCSR loader checks each row
// and the stored aggregates but not adjacency symmetry, which every
// algorithm assumes (kl and fm panicked on such a file). bisect must
// refuse the file before any algorithm runs.
func TestForgedAsymmetricBCSRRejected(t *testing.T) {
	// The 8-cycle with its half-edge 3→2 re-pointed to 3→0. Every row
	// stays sorted and the forward count still matches, so the loader
	// accepts the image; only Validate's mirror check can tell.
	off := []int32{0, 2, 4, 6, 8, 10, 12, 14, 16}
	edges := []graph.Edge{
		{To: 1, W: 1}, {To: 7, W: 1}, // 0
		{To: 0, W: 1}, {To: 2, W: 1}, // 1
		{To: 1, W: 1}, {To: 3, W: 1}, // 2
		{To: 0, W: 1}, {To: 4, W: 1}, // 3, was [2 4]
		{To: 3, W: 1}, {To: 5, W: 1}, // 4
		{To: 4, W: 1}, {To: 6, W: 1}, // 5
		{To: 5, W: 1}, {To: 7, W: 1}, // 6
		{To: 0, W: 1}, {To: 6, W: 1}, // 7
	}
	var g graph.Graph
	if err := g.ResetCSR(off, edges, nil); err != nil {
		t.Fatalf("ResetCSR rejected the forged rows: %v", err)
	}
	path := filepath.Join(t.TempDir(), "forged.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSRFile(f, &g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	savedArgs := os.Args
	t.Cleanup(func() { os.Args = savedArgs })
	flag.CommandLine = flag.NewFlagSet("bisect", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = []string{"bisect", "-in", path, "-alg", "kl"}
	_, err = run()
	if err == nil || !strings.Contains(err.Error(), "asymmetric") {
		t.Fatalf("run on a forged asymmetric BCSR file: err = %v, want an asymmetry error", err)
	}
}
