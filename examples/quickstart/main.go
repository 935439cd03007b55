// Quickstart: generate a random regular graph with a planted bisection,
// run a random balanced split (the baseline) and the paper's four
// algorithms on it, and compare the cuts they find against the planted
// width.
package main

import (
	"fmt"
	"log"
	"time"

	bisect "repro"
)

func main() {
	const (
		vertices = 1000
		planted  = 16
		degree   = 3
	)
	g, err := bisect.BReg(vertices, planted, degree, bisect.NewRand(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Gbreg(%d, %d, %d): %d edges, planted bisection width %d\n\n",
		vertices, planted, degree, g.M(), planted)

	// A short annealing schedule keeps the demo snappy; drop SAOptions for
	// the full JAMS'89 schedule.
	fastSA := bisect.SAOptions{SizeFactor: 8, TempFactor: 0.95, FreezeLim: 4, MaxTemps: 500}
	random, err := bisect.NewBisector("random")
	if err != nil {
		log.Fatal(err)
	}
	algorithms := []bisect.Bisector{
		random,
		bisect.KL{},
		bisect.SA{Opts: fastSA},
		bisect.Compacted{Inner: bisect.KL{}},
		bisect.Compacted{Inner: bisect.SA{Opts: fastSA}},
	}

	fmt.Printf("%-8s %-8s %-10s\n", "alg", "cut", "time")
	for _, alg := range algorithms {
		r := bisect.NewRand(7) // same stream for every algorithm
		t0 := time.Now()
		b, err := bisect.BestOf{Inner: alg, Starts: 2}.Bisect(g, r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-8d %-10s\n", alg.Name(), b.Cut(), time.Since(t0).Round(time.Millisecond))
	}
	fmt.Println("\nCompacted variants should sit at (or near) the planted width;")
	fmt.Println("plain KL/SA typically land far above it on degree-3 graphs. The")
	fmt.Println("random split is the paper's initial bisection, the baseline they all")
	fmt.Println("improve on.")
}
