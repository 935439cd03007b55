// Command bisect partitions a graph file with a chosen algorithm and
// reports the cut, balance, and timing.
//
// Usage:
//
//	bisect -in graph.el [-alg ckl] [-starts 2] [-seed 1989] [-out sides.txt]
//	       [-timeout 30s] [-budget N] [-trace events.jsonl] [-trace-timing]
//
// The input is an edge list or a binary CSR (BCSR) image, told apart by
// the file's first bytes, not its name. BCSR files (written by gengraph
// -format csr) are memory-mapped rather than parsed, so million-vertex
// graphs load in milliseconds. The starts run one after another on one
// goroutine. Every result is re-verified from scratch (cut, side
// weights, gains) before it is reported.
//
// The output file (if requested) has one line per vertex: "<id> <side>".
// -trace streams per-pass/per-temperature/per-level events as JSON Lines
// ("-" = stdout, and the report lines then go to stderr, so stdout is
// pure JSON Lines); see docs/OBSERVABILITY.md for the schema. Without
// -trace-timing the stream is byte-identical across runs of one seed.
//
// A run interrupted by -timeout, -budget, SIGINT, or SIGTERM still
// reports (and writes) the best bisection found so far, then exits with
// code 3 so scripts can tell "stopped early with a valid result" from
// success (0) and failure (1). See docs/ROBUSTNESS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	bisect "repro"
	"repro/internal/fsx"
)

// exitInterrupted is the exit code for runs stopped by a timeout,
// budget, or signal that still produced a valid best-so-far result.
const exitInterrupted = 3

func main() {
	interrupted, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bisect:", err)
		os.Exit(1)
	}
	if interrupted {
		os.Exit(exitInterrupted)
	}
}

func run() (interrupted bool, err error) {
	in := flag.String("in", "", "input graph file, edge list or BCSR (required)")
	alg := flag.String("alg", "ckl", "algorithm: "+strings.Join(bisect.BisectorNames(), ", "))
	starts := flag.Int("starts", 2, "number of random starts (best kept)")
	seed := flag.Uint64("seed", 1989, "random seed")
	out := flag.String("out", "", "write per-vertex side assignment to this file")
	timeout := flag.Duration("timeout", 0, "stop at the next checkpoint after this long, keeping the best-so-far result (0 = none)")
	budget := flag.Int64("budget", 0, "stop after this many checkpoint polls, keeping the best-so-far result (0 = unlimited)")
	tracePath := flag.String("trace", "", "stream trace events as JSON Lines to this file (\"-\" = stdout, report to stderr); see docs/OBSERVABILITY.md")
	traceTiming := flag.Bool("trace-timing", false, "include wall-clock/allocation counters in the trace (non-deterministic)")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		return false, fmt.Errorf("missing -in")
	}
	if *starts < 1 {
		flag.Usage()
		return false, fmt.Errorf("-starts must be at least 1, got %d", *starts)
	}
	// With -trace -, stdout carries the JSON Lines alone and the report
	// goes to stderr.
	var report io.Writer = os.Stdout
	if *tracePath == "-" {
		report = os.Stderr
	}
	// A BCSR graph's edge arrays live in the file's mapping, which must
	// stay open for the whole run.
	g, release, err := bisect.LoadGraphFile(*in)
	if err != nil {
		return false, err
	}
	defer release()
	fmt.Fprintf(report, "graph: %d vertices, %d edges, avg degree %.2f\n", g.N(), g.M(), g.AvgDegree())

	a, err := bisect.NewBisector(*alg)
	if err != nil {
		return false, err
	}

	// SIGINT/SIGTERM and -timeout cancel the same context; the
	// algorithms stop at their next checkpoint and hand back their
	// best-so-far bisection, which is reported below as usual.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctl := bisect.NewRunControl(ctx, *budget)

	// Optional tracing: every pass/temperature/level event streams to
	// the JSONL sink; the driver's own summary event goes last. A trace
	// file is written atomically — it appears only on commit, never as a
	// torn partial file.
	var trace *bisect.TraceJSONL
	var traceFile *fsx.AtomicFile
	if *tracePath != "" {
		var w io.Writer = os.Stdout
		if *tracePath != "-" {
			tf, err := fsx.NewAtomicFile(*tracePath, 0o644)
			if err != nil {
				return false, err
			}
			defer tf.Abort()
			traceFile = tf
			w = tf
		}
		trace = bisect.NewTraceJSONL(w)
		trace.Timing = *traceTiming
	}

	r := bisect.NewRand(*seed)
	var memBefore runtime.MemStats
	if trace != nil {
		runtime.ReadMemStats(&memBefore)
	}
	t0 := time.Now()
	bestOf := bisect.BestOf{Inner: a, Starts: *starts}
	var counter *startCounter
	if trace != nil {
		counter = &startCounter{obs: trace, algo: bestOf.Name()}
		bestOf.Observer = counter
	}
	runner := bisect.WithControl(bisect.WithWorkspace(bestOf), ctl)
	best, err := runner.Bisect(g, r)
	if err != nil {
		if !bisect.IsStopError(err) || best == nil {
			return false, err
		}
		interrupted = true
		fmt.Fprintf(os.Stderr, "bisect: interrupted (%v); reporting best-so-far result\n", err)
	}
	elapsed := time.Since(t0)
	if trace != nil {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		trace.Observe(bisect.TraceEvent{
			Type: "run_done", Algo: "bisect", Index: counter.ran,
			Cut: best.Cut(), BestCut: best.Cut(), Imbalance: best.Imbalance(),
			ElapsedNS:  elapsed.Nanoseconds(),
			AllocBytes: memAfter.TotalAlloc - memBefore.TotalAlloc,
		})
		if err := trace.Err(); err != nil {
			return false, fmt.Errorf("writing trace: %v", err)
		}
		if traceFile != nil {
			if err := traceFile.Commit(); err != nil {
				return false, fmt.Errorf("writing trace: %v", err)
			}
		}
		if *tracePath != "-" {
			fmt.Printf("trace written to %s\n", *tracePath)
		}
	}

	if err := best.Validate(); err != nil {
		return false, fmt.Errorf("validation failed: %v", err)
	}
	n0, n1 := best.CountSides()
	switch {
	case !interrupted:
		fmt.Fprintf(report, "algorithm: %s (best of %d starts)\n", *alg, *starts)
	case counter != nil:
		fmt.Fprintf(report, "algorithm: %s (stopped early; %d of %d starts run)\n", *alg, counter.ran, *starts)
	default:
		fmt.Fprintf(report, "algorithm: %s (stopped early; fewer than %d starts finished)\n", *alg, *starts)
	}
	fmt.Fprintf(report, "cut: %d\n", best.Cut())
	fmt.Fprintf(report, "sides: %d / %d (weights %d / %d)\n", n0, n1, best.SideWeight(0), best.SideWeight(1))
	fmt.Fprintf(report, "time: %s\n", elapsed.Round(time.Millisecond))

	if *out != "" {
		of, err := fsx.NewAtomicFile(*out, 0o644)
		if err != nil {
			return false, err
		}
		defer of.Abort()
		for v := int32(0); int(v) < g.N(); v++ {
			if _, err := fmt.Fprintf(of, "%d %d\n", v, best.Side(v)); err != nil {
				return false, err
			}
		}
		if err := of.Commit(); err != nil {
			return false, err
		}
		fmt.Fprintf(report, "assignment written to %s\n", *out)
	}
	return interrupted, nil
}

// startCounter forwards every event to obs and keeps the start count
// from the run_done of the multi-start driver named algo: fewer than
// -starts when the run was stopped early.
type startCounter struct {
	obs  bisect.TraceObserver
	algo string
	ran  int
}

func (c *startCounter) Observe(e bisect.TraceEvent) {
	if e.Type == "run_done" && e.Algo == c.algo {
		c.ran = e.Index
	}
	c.obs.Observe(e)
}
