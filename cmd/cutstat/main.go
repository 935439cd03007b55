// Command cutstat evaluates a side-assignment file against a graph:
// cut weight, balance, boundary size, and the spectral lower bound, so a
// partition produced by any tool (including cmd/bisect -out) can be
// verified independently.
//
// Usage:
//
//	cutstat -graph g.el -sides sides.txt [-bound]
//
// The graph is an edge list or a binary CSR (BCSR) image, told apart by
// the file's first bytes as cmd/bisect does, so any graph bisect ran on
// can be checked. The sides file has one "<vertex> <side>" pair per line
// (cmd/bisect's -out format).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	bisect "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cutstat:", err)
		os.Exit(1)
	}
}

func run() error {
	graphPath := flag.String("graph", "", "graph file, edge list or BCSR")
	sidesPath := flag.String("sides", "", "side assignment file: one '<vertex> <side>' per line")
	bound := flag.Bool("bound", false, "also compute the spectral lower bound (λ₂·|V|/4)")
	flag.Parse()
	if *graphPath == "" || *sidesPath == "" {
		flag.Usage()
		return fmt.Errorf("missing -graph or -sides")
	}

	g, release, err := bisect.LoadGraphFile(*graphPath)
	if err != nil {
		return err
	}
	defer release()

	side, err := readSides(*sidesPath, g.N())
	if err != nil {
		return err
	}
	b, err := bisect.NewBisection(g, side)
	if err != nil {
		return err
	}

	n0, n1 := b.CountSides()
	boundary := 0
	for v := int32(0); int(v) < g.N(); v++ {
		for _, e := range g.Neighbors(v) {
			if b.Side(e.To) != b.Side(v) {
				boundary++
				break
			}
		}
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())
	fmt.Printf("cut: %d\n", b.Cut())
	fmt.Printf("sides: %d / %d (weights %d / %d, imbalance %d)\n",
		n0, n1, b.SideWeight(0), b.SideWeight(1), b.Imbalance())
	fmt.Printf("boundary vertices: %d (%.1f%%)\n", boundary, 100*float64(boundary)/float64(max(1, g.N())))
	if *bound {
		lb, err := bisect.SpectralLowerBound(g, bisect.SpectralOptions{}, bisect.NewRand(1))
		if err != nil {
			return err
		}
		fmt.Printf("spectral lower bound: %.2f (cut is %.2fx the bound)\n", lb, float64(b.Cut())/maxf(lb, 1e-9))
	}
	return nil
}

func readSides(path string, n int) ([]uint8, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	side := make([]uint8, n)
	seen := make([]bool, n)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("sides line %d: want '<vertex> <side>', got %q", line, text)
		}
		v, err1 := strconv.Atoi(fields[0])
		s, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || v < 0 || v >= n || s < 0 || s > 1 {
			return nil, fmt.Errorf("sides line %d: invalid record %q", line, text)
		}
		if seen[v] {
			return nil, fmt.Errorf("sides line %d: duplicate vertex %d", line, v)
		}
		seen[v] = true
		side[v] = uint8(s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for v, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("sides file missing vertex %d", v)
		}
	}
	return side, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
