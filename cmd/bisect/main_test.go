package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestMain runs the test binary as bisect itself when it is given
// arguments after "--", so a test can check the exit status and the
// standard error of a real bisect process.
func TestMain(m *testing.M) {
	flag.Parse()
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"bisect"}, args...)
		flag.CommandLine = flag.NewFlagSet("bisect", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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

// TestVersion1BCSRExitsOne: an image of the retired BCSR version 1,
// which stored header aggregates and a weighted-degree section, makes
// bisect exit 1 with a message that names the version; it is never
// parsed as an edge list.
func TestVersion1BCSRExitsOne(t *testing.T) {
	// A single edge {0,1}: n, m, flags, total edge weight, total vertex
	// weight, maximum degree, maximum weighted degree and maximum vertex
	// weight; then off [0 1 2] padded to 16 bytes, the two half-edges
	// and the weighted degrees [1 1].
	image := []byte("BCSRG1\x00\x00")
	for _, v := range []uint64{2, 1, 0, 1, 2, 1, 1, 1} {
		image = binary.LittleEndian.AppendUint64(image, v)
	}
	image = append(image,
		0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, // off
		1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, // edges
		1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0) // wdeg
	path := filepath.Join(t.TempDir(), "edge.v1.csr")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "--", "-in", path, "-alg", "kl")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("bisect on a version 1 image: %v, want exit status 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `BCSR version "1"`) {
		t.Errorf("bisect on a version 1 image printed %q, want a message naming version 1", out)
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

// TestTraceToStdoutIsJSONLines: with -trace -, stdout carries the trace
// alone, one JSON value per line ending in the CLI's run_done, and the
// report lines go to stderr.
func TestTraceToStdoutIsJSONLines(t *testing.T) {
	savedArgs, savedStdout, savedStderr := os.Args, os.Stdout, os.Stderr
	t.Cleanup(func() { os.Args, os.Stdout, os.Stderr = savedArgs, savedStdout, savedStderr })
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	os.Stdout, os.Stderr = stdout, stderr
	flag.CommandLine = flag.NewFlagSet("bisect", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = []string{"bisect", "-in", "../../testdata/breg200.el", "-alg", "kl", "-starts", "2",
		"-trace", "-", "-out", filepath.Join(dir, "sides.txt")}
	_, err = run()
	os.Stdout, os.Stderr = savedStdout, savedStderr
	if err != nil {
		t.Fatal(err)
	}

	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("stdout line is not JSON: %q", line)
		}
	}
	var last struct {
		Type string `json:"type"`
		Algo string `json:"algo"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "run_done" || last.Algo != "bisect" {
		t.Errorf("last stdout line is %+v, want the CLI's run_done (algo bisect)", last)
	}

	report, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "\ncut: ") {
		t.Errorf("stderr holds no cut line:\n%s", report)
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
