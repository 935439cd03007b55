// Command gengraph emits instances of the paper's graph models to a file
// in the native edge-list format (or METIS, JSON, or binary CSR with
// -format).
//
// Usage:
//
//	gengraph -model breg -n 5000 -b 16 -d 3 [-seed 1] [-out g.el]
//	gengraph -model 2set -n 2000 -deg 3.5 -b 32
//	gengraph -model gnp -n 2000 -deg 4
//	gengraph -model gnp -n 1000000 -deg 8 -stream -out g.el
//	gengraph -model gnp -n 1000000 -deg 8 -format csr -out g.csr
//	gengraph -model grid -rows 32 -cols 32
//	gengraph -model ladder|ladder3n|btree|cycle|hypercube|complete|regular ...
//
// -format csr writes the binary CSR (BCSR) layout that bisect and
// bisectd memory-map on load; see docs/PERFORMANCE.md for the format.
// -stream (gnp + edgelist only) writes edges to the output as they are
// sampled — two deterministic passes, one to count for the header and
// one to write — so million-vertex instances generate in O(1) memory
// without materializing the graph.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	bisect "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

func run() error {
	model := flag.String("model", "", "breg | 2set | gnp | regular | grid | ladder | ladder3n | btree | cycle | hypercube | complete")
	n := flag.Int("n", 1000, "vertex count (breg/2set/gnp/regular/ladder*/btree/cycle/complete)")
	b := flag.Int("b", 16, "planted bisection width (breg/2set)")
	d := flag.Int("d", 3, "degree (breg/regular) or dimension (hypercube)")
	deg := flag.Float64("deg", 3.0, "target average degree (2set/gnp)")
	p := flag.Float64("p", -1, "edge probability (gnp; overrides -deg when ≥ 0)")
	rows := flag.Int("rows", 32, "rows (grid)")
	cols := flag.Int("cols", 32, "cols (grid)")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("out", "", "output file (default stdout)")
	format := flag.String("format", "edgelist", "edgelist | metis | json | csr")
	stream := flag.Bool("stream", false, "stream edges to the output without materializing the graph (gnp, edgelist only)")
	flag.Parse()

	if *stream {
		return runStream(*model, *n, *deg, *p, *seed, *out, *format)
	}

	r := bisect.NewRand(*seed)
	var g *bisect.Graph
	var err error
	switch *model {
	case "breg":
		g, err = bisect.BReg(*n, *b, *d, r)
	case "2set":
		var pp float64
		pp, err = bisect.TwoSetForAvgDegree(*n, *deg, *b)
		if err == nil {
			g, err = bisect.TwoSet(*n, pp, pp, *b, r)
		}
	case "gnp":
		pp := *p
		if pp < 0 {
			pp = *deg / float64(*n-1)
		}
		g, err = bisect.GNP(*n, pp, r)
	case "regular":
		g, err = bisect.RandomRegular(*n, *d, r)
	case "grid":
		g, err = bisect.Grid(*rows, *cols)
	case "ladder":
		g, err = bisect.Ladder(*n / 2)
	case "ladder3n":
		g, err = bisect.Ladder3N(*n / 3)
	case "btree":
		g, err = bisect.CompleteBinaryTree(*n)
	case "cycle":
		g, err = bisect.Cycle(*n)
	case "hypercube":
		g, err = bisect.Hypercube(*d)
	case "complete":
		g, err = bisect.Complete(*n)
	case "":
		flag.Usage()
		return fmt.Errorf("missing -model")
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "edgelist":
		err = bisect.WriteEdgeList(w, g)
	case "metis":
		err = bisect.WriteMETIS(w, g)
	case "json":
		var data []byte
		data, err = bisect.MarshalGraph(g)
		if err == nil {
			_, err = w.Write(append(data, '\n'))
		}
	case "csr":
		err = bisect.WriteCSRFile(w, g)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gengraph: %d vertices, %d edges, avg degree %.2f\n", g.N(), g.M(), g.AvgDegree())
	return nil
}

// runStream writes a 𝒢np instance in the edge-list format as the edges
// are sampled, never holding the graph in memory. The header needs m up
// front, so the instance is enumerated twice with the same seed: the
// RNG is deterministic, so both passes visit the identical edge set.
func runStream(model string, n int, deg, p float64, seed uint64, out, format string) error {
	if model != "gnp" {
		return fmt.Errorf("-stream supports only -model gnp (got %q)", model)
	}
	if format != "edgelist" {
		return fmt.Errorf("-stream supports only -format edgelist (got %q; use the materializing path for csr/metis/json)", format)
	}
	pp := p
	if pp < 0 {
		pp = deg / float64(n-1)
	}
	m, err := bisect.StreamGNP(n, pp, bisect.NewRand(seed), func(u, v int32) error { return nil })
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "graph %d %d\n", n, m); err != nil {
		return err
	}
	if _, err := bisect.StreamGNP(n, pp, bisect.NewRand(seed), func(u, v int32) error {
		_, werr := fmt.Fprintf(bw, "e %d %d\n", u, v)
		return werr
	}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gengraph: %d vertices, %d edges, avg degree %.2f (streamed)\n", n, m, 2*float64(m)/float64(n))
	return nil
}
