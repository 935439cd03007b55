// Command bisect partitions a graph file with a chosen algorithm and
// reports the cut, balance, and timing.
//
// Usage:
//
//	bisect -in graph.el [-format edgelist|metis|json|csr] [-alg ckl]
//	       [-starts 2] [-seed 1989] [-out sides.txt]
//	       [-validate] [-timeout 30s] [-budget N]
//	       [-trace events.jsonl] [-trace-format jsonl|csv] [-trace-timing]
//
// Binary CSR inputs (.csr, written by gengraph -format csr) are
// memory-mapped rather than parsed, so million-vertex graphs load in
// milliseconds. The starts run one after another on one goroutine.
//
// The output file (if requested) has one line per vertex: "<id> <side>".
// -trace streams per-pass/per-temperature/per-level events ("-" =
// stdout); see docs/OBSERVABILITY.md for the schema. Without
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
	in := flag.String("in", "", "input graph file (required)")
	format := flag.String("format", "", "input format: edgelist, metis, json, csr (default: by extension)")
	alg := flag.String("alg", "ckl", "algorithm: "+strings.Join(bisect.BisectorNames(), ", "))
	starts := flag.Int("starts", 2, "number of random starts (best kept)")
	seed := flag.Uint64("seed", 1989, "random seed")
	out := flag.String("out", "", "write per-vertex side assignment to this file")
	validate := flag.Bool("validate", false, "re-verify the result from scratch before reporting")
	timeout := flag.Duration("timeout", 0, "stop at the next checkpoint after this long, keeping the best-so-far result (0 = none)")
	budget := flag.Int64("budget", 0, "stop after this many checkpoint polls, keeping the best-so-far result (0 = unlimited)")
	tracePath := flag.String("trace", "", "stream trace events to this file (\"-\" = stdout); see docs/OBSERVABILITY.md")
	traceFormat := flag.String("trace-format", "jsonl", "trace output format: jsonl or csv")
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
	var g *bisect.Graph
	switch detectFormat(*format, *in) {
	case "csr":
		// BCSR files are memory-mapped: the graph's edge arrays live in
		// the page cache, so the mapping must stay open for the whole run.
		cf, oerr := bisect.OpenCSRFile(*in)
		if oerr != nil {
			return false, oerr
		}
		defer cf.Close()
		g = cf.Graph()
		// The loader checks each row but leaves adjacency symmetry to
		// the file's writer, and every algorithm assumes it: a forged
		// asymmetric file must stop here, not inside a gain update.
		if verr := g.Validate(); verr != nil {
			return false, fmt.Errorf("%s: %w", *in, verr)
		}
	case "metis":
		g, err = readVia(*in, bisect.ReadMETIS)
	case "json":
		data, rerr := os.ReadFile(*in)
		if rerr != nil {
			return false, rerr
		}
		g, err = bisect.UnmarshalGraph(data)
	default:
		g, err = readVia(*in, bisect.ReadEdgeList)
	}
	if err != nil {
		return false, err
	}
	fmt.Printf("graph: %d vertices, %d edges, avg degree %.2f\n", g.N(), g.M(), g.AvgDegree())

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
	// the chosen sink; the driver's own summary event goes last. File
	// sinks are written atomically — the trace appears only on commit,
	// never as a torn partial file.
	var obs bisect.TraceObserver
	var flushTrace func() error
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
		switch *traceFormat {
		case "jsonl":
			j := bisect.NewTraceJSONL(w)
			j.Timing = *traceTiming
			obs, flushTrace = j, j.Err
		case "csv":
			c := bisect.NewTraceCSV(w)
			c.Timing = *traceTiming
			obs, flushTrace = c, c.Flush
		default:
			return false, fmt.Errorf("unknown -trace-format %q (want jsonl or csv)", *traceFormat)
		}
	}

	r := bisect.NewRand(*seed)
	var memBefore runtime.MemStats
	if obs != nil {
		runtime.ReadMemStats(&memBefore)
	}
	t0 := time.Now()
	runner := bisect.WithControl(bisect.WithWorkspace(bisect.BestOf{Inner: a, Starts: *starts, Observer: obs}), ctl)
	best, err := runner.Bisect(g, r)
	if err != nil {
		if !bisect.IsStopError(err) || best == nil {
			return false, err
		}
		interrupted = true
		fmt.Fprintf(os.Stderr, "bisect: interrupted (%v); reporting best-so-far result\n", err)
	}
	elapsed := time.Since(t0)
	if obs != nil {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		obs.Observe(bisect.TraceEvent{
			Type: "run_done", Algo: "bisect", Index: *starts,
			Cut: best.Cut(), BestCut: best.Cut(), Imbalance: best.Imbalance(),
			ElapsedNS:  elapsed.Nanoseconds(),
			AllocBytes: memAfter.TotalAlloc - memBefore.TotalAlloc,
		})
		if err := flushTrace(); err != nil {
			return false, fmt.Errorf("writing trace: %v", err)
		}
		if traceFile != nil {
			if err := traceFile.Commit(); err != nil {
				return false, fmt.Errorf("writing trace: %v", err)
			}
		}
		if *tracePath != "-" {
			fmt.Printf("trace written to %s (%s)\n", *tracePath, *traceFormat)
		}
	}

	if *validate {
		if err := best.Validate(); err != nil {
			return false, fmt.Errorf("validation failed: %v", err)
		}
	}
	n0, n1 := best.CountSides()
	fmt.Printf("algorithm: %s (best of %d starts)\n", *alg, *starts)
	fmt.Printf("cut: %d\n", best.Cut())
	fmt.Printf("sides: %d / %d (weights %d / %d)\n", n0, n1, best.SideWeight(0), best.SideWeight(1))
	fmt.Printf("time: %s\n", elapsed.Round(time.Millisecond))

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
		fmt.Printf("assignment written to %s\n", *out)
	}
	return interrupted, nil
}

func detectFormat(explicit, path string) string {
	if explicit != "" {
		return explicit
	}
	switch {
	case strings.HasSuffix(path, ".metis") || strings.HasSuffix(path, ".graph"):
		return "metis"
	case strings.HasSuffix(path, ".json"):
		return "json"
	case strings.HasSuffix(path, ".csr") || strings.HasSuffix(path, ".bcsr"):
		return "csr"
	default:
		return "edgelist"
	}
}

// readVia opens path and parses it with the given stream reader.
func readVia(path string, read func(io.Reader) (*bisect.Graph, error)) (*bisect.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}
