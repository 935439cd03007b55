package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// runArgs runs the command with args on a fresh flag set.
func runArgs(t *testing.T, args ...string) error {
	t.Helper()
	savedArgs := os.Args
	t.Cleanup(func() { os.Args = savedArgs })
	flag.CommandLine = flag.NewFlagSet("gengraph", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = append([]string{"gengraph"}, args...)
	return run()
}

// TestFailedRunKeepsOutFile: -out is replaced only by a run that
// succeeds. A run refused for its format must leave the file that was
// there byte for byte, not truncate it.
func TestFailedRunKeepsOutFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.el")
	before := []byte("graph 2 1\ne 0 1\n")
	if err := os.WriteFile(out, before, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"bogus", "metis", "json"} {
		err := runArgs(t, "-model", "breg", "-n", "100", "-b", "4", "-format", format, "-out", out)
		if err == nil || !strings.Contains(err.Error(), "unknown format") {
			t.Fatalf("-format %s: err = %v, want an unknown-format error", format, err)
		}
		after, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("-format %s changed -out: %q, want %q", format, after, before)
		}
	}
}

// TestCSRLoadsLikeEdgeList: the -format csr output of an instance loads
// through LoadFile to the same graph as its edge-list output.
func TestCSRLoadsLikeEdgeList(t *testing.T) {
	dir := t.TempDir()
	el, csr := filepath.Join(dir, "g.el"), filepath.Join(dir, "g.csr")
	args := []string{"-model", "2set", "-n", "400", "-deg", "3.5", "-b", "12", "-seed", "5"}
	if err := runArgs(t, append(args, "-out", el)...); err != nil {
		t.Fatal(err)
	}
	if err := runArgs(t, append(args, "-format", "csr", "-out", csr)...); err != nil {
		t.Fatal(err)
	}
	var text [2]bytes.Buffer
	for i, path := range []string{el, csr} {
		g, release, err := graph.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteEdgeList(&text[i], g); err != nil {
			t.Fatal(err)
		}
		if err := release(); err != nil {
			t.Fatal(err)
		}
	}
	if text[0].Len() == 0 || !bytes.Equal(text[0].Bytes(), text[1].Bytes()) {
		t.Fatal("the csr output does not load to the edge-list output's graph")
	}
	raw, err := os.ReadFile(csr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("BCSRG1\x00\x00")) {
		t.Fatal("-format csr did not write a BCSR image")
	}
}
