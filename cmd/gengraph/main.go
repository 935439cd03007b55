// Command gengraph emits instances of the paper's graph models to a file
// in the native edge-list format, or in the binary CSR format with
// -format csr.
//
// Usage:
//
//	gengraph -model breg -n 5000 -b 16 -d 3 [-seed 1] [-out g.el]
//	gengraph -model 2set -n 2000 -deg 3.5 -b 32
//	gengraph -model gnp -n 2000 -deg 4
//	gengraph -model gnp -n 1000000 -deg 8 -format csr -out g.csr
//	gengraph -model grid -rows 32 -cols 32
//	gengraph -model ladder|ladder3n|btree|cycle|hypercube|complete|regular ...
//
// -format csr writes the binary CSR (BCSR) layout that bisect and
// cutstat memory-map on load; see docs/PERFORMANCE.md for the format.
// The -out file is written atomically: a failed run leaves a file that
// was already there untouched.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	bisect "repro"
	"repro/internal/fsx"
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
	format := flag.String("format", "edgelist", "edgelist | csr")
	flag.Parse()

	var write func(io.Writer, *bisect.Graph) error
	switch *format {
	case "edgelist":
		write = bisect.WriteEdgeList
	case "csr":
		write = bisect.WriteCSRFile
	default:
		return fmt.Errorf("unknown format %q (want edgelist or csr)", *format)
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

	if *out == "" {
		if err := write(os.Stdout, g); err != nil {
			return err
		}
	} else {
		f, err := fsx.NewAtomicFile(*out, 0o644)
		if err != nil {
			return err
		}
		defer f.Abort()
		if err := write(f, g); err != nil {
			return err
		}
		if err := f.Commit(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "gengraph: %d vertices, %d edges, avg degree %.2f\n", g.N(), g.M(), g.AvgDegree())
	return nil
}
