// Command benchmark is the repository's end-to-end benchmark. It runs four
// fixed workloads — the paper's 5000-vertex experiment, multilevel KL on a
// million-vertex BCSR file at one and at two threads, and bisectd jobs over
// loopback HTTP — each in its own child process, certifies every result
// independently of the partition package, and prints every metric by name
// and unit. With -trace 1 it replays the same ops with per-layer spans and
// prints the per-layer metrics instead.
//
//	bash cmd/benchmark/run.sh                              # all workloads
//	bash cmd/benchmark/run.sh -workload svc -seed 3        # one workload
//	bash cmd/benchmark/run.sh -workload ml1m_t1 -trace 1   # per-layer run
//	bash cmd/benchmark/run.sh -check setA setB             # compare two sets
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md defines the workloads,
// the metrics and the layer-to-metric map; BENCHMARK.json at the repository
// root lists the metric names, units, directions and bounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// config is one invocation's settings; the parent hands them to each child.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceFlag int
	fs.StringVar(&c.workload, "workload", "", "workload to run (default: every workload, one child process each)")
	fs.Uint64Var(&c.seed, "seed", 1, "seed of the order in which the run visits its workload's fixed ensemble of ops")
	fs.Float64Var(&c.seconds, "seconds", refSeconds, "measured closed-loop time per workload")
	fs.IntVar(&traceFlag, "trace", 0, "1 = replay the measured ops with per-layer spans and report per-layer metrics")
	fs.StringVar(&c.scale, "scale", "full", "instance sizes: full, or tiny for the test")
	fs.StringVar(&c.out, "out", filepath.Join(".bench_build", "results"), "directory for result files, trace files and generated inputs")
	check := fs.Bool("check", false, "compare two result directories: -check dirA dirB")
	child := fs.Bool("child", false, "run -workload in this process (the parent's child mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -check needs two result directories")
			return 2
		}
		return runCheck("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || traceFlag < 0 || traceFlag > 1 || c.seconds <= 0 || (c.scale != "full" && c.scale != "tiny") {
		fs.Usage()
		return 2
	}
	c.trace = traceFlag == 1
	names := workloadNames()
	if c.workload != "" {
		if _, ok := lookupWorkload(c.workload); !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v)\n", c.workload, names)
			return 2
		}
		names = []string{c.workload}
	}
	if *child {
		return runChild(c, stdout, stderr)
	}
	return runParent(c, names, stdout, stderr)
}

// runParent runs each named workload in a child process of this binary,
// writes each child's result file, and prints the summary line last.
func runParent(c config, names []string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var docs []*resultDoc
	for _, name := range names {
		doc, err := spawn(c, name, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if err := writeResult(c.out, doc); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printDoc(stdout, doc)
		docs = append(docs, doc)
	}
	line := summarize(docs)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process, so peak RSS and GC state
// belong to that workload alone, and decodes the result document the
// child prints as its last line.
func spawn(c config, name string, stderr io.Writer) (*resultDoc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Setup, the measured loop and, with -trace 1, a second setup and the
	// replay all fit well inside this limit; it only stops a hung child.
	limit := time.Duration(2*c.seconds)*time.Second + 2*time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	traceArg := "0"
	if c.trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", traceArg, "-scale", c.scale, "-out", c.out)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	last := bytes.TrimSpace(out.Bytes())
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var doc resultDoc
	if err := json.Unmarshal(last, &doc); err != nil {
		return nil, fmt.Errorf("decoding child result: %w", err)
	}
	return &doc, nil
}

// runChild runs one workload in this process and prints its result
// document as one JSON line.
func runChild(c config, stdout, stderr io.Writer) int {
	w, _ := lookupWorkload(c.workload)
	doc, err := execute(c, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	data, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize merges the workloads' results. One workload reports its
// metrics under their own names; several prefix each with the workload.
func summarize(docs []*resultDoc) summaryLine {
	s := summaryLine{Correct: true, Metrics: map[string]metric{}}
	for _, d := range docs {
		s.Correct = s.Correct && d.Correct
		s.Attempted += d.Attempted
		s.Failed += d.Failed
		for name, m := range d.Metrics {
			if len(docs) > 1 {
				name = d.Workload + "/" + name
			}
			s.Metrics[name] = m
		}
	}
	return s
}
