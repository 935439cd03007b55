package main

import (
	"encoding/json"
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

// TestStoppedRunReportsStartsRun: a run that -budget stops after its
// first start must not claim the starts it never ran, neither in the
// trace's closing run_done nor in the summary line.
func TestStoppedRunReportsStartsRun(t *testing.T) {
	savedArgs, savedStdout := os.Args, os.Stdout
	t.Cleanup(func() { os.Args, os.Stdout = savedArgs, savedStdout })
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	stdout, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	os.Stdout = stdout
	flag.CommandLine = flag.NewFlagSet("bisect", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = []string{"bisect", "-in", "../../testdata/breg200.el", "-alg", "kl", "-starts", "4", "-budget", "1", "-trace", tracePath}
	interrupted, err := run()
	os.Stdout = savedStdout
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Fatal("-budget 1 did not stop the run")
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		Type  string `json:"type"`
		Algo  string `json:"algo"`
		Index int    `json:"index"`
	}
	var last event
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if e.Type == "run_done" {
			last = e
		}
	}
	if last.Algo != "bisect" || last.Index != 1 {
		t.Errorf("last run_done = %+v, want algo bisect with index 1 (starts run)", last)
	}

	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "best of 4 starts") {
		t.Errorf("summary claims starts that never ran:\n%s", out)
	}
}

// The file's first bytes, not its name, choose the parser: a BCSR image
// named g.el and an edge list named g.csr each load and give the cut of
// a correctly named copy.
func TestFormatByContentNotName(t *testing.T) {
	edgeList, err := os.ReadFile("../../testdata/breg200.el")
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.ReadEdgeList(strings.NewReader(string(edgeList)))
	if err != nil {
		t.Fatal(err)
	}
	var image strings.Builder
	if err := graph.WriteCSRFile(&image, g); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cut := func(path string) string {
		t.Helper()
		savedArgs, savedStdout := os.Args, os.Stdout
		t.Cleanup(func() { os.Args, os.Stdout = savedArgs, savedStdout })
		stdout, err := os.Create(path + ".stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer stdout.Close()
		os.Stdout = stdout
		flag.CommandLine = flag.NewFlagSet("bisect", flag.ContinueOnError)
		flag.CommandLine.SetOutput(io.Discard)
		os.Args = []string{"bisect", "-in", path, "-alg", "ckl", "-seed", "7"}
		_, runErr := run()
		os.Stdout = savedStdout
		if runErr != nil {
			t.Fatalf("%s: %v", filepath.Base(path), runErr)
		}
		out, err := os.ReadFile(stdout.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "cut: ") {
				return line
			}
		}
		t.Fatalf("%s: no cut line in\n%s", filepath.Base(path), out)
		return ""
	}
	want := cut(write("right.el", string(edgeList)))
	for name, data := range map[string]string{
		"right.csr": image.String(),
		"g.el":      image.String(),
		"g.csr":     string(edgeList),
	} {
		if got := cut(write(name, data)); got != want {
			t.Errorf("%s: %q, want %q as for the edge list", name, got, want)
		}
	}
}
