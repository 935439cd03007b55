// Graph families: how the algorithms behave on the paper's graph models
// (𝒢breg and 𝒢2set with a planted bisection, and 𝒢np), its
// KL-adversarial ladder, and a grid. The last column is the Fiedler
// estimate λ₂·n/4 of a lower bound on the bisection width. The
// eigensolver can stop before it converges; an unconverged λ₂ lies above
// the true one, so that row prints – and the error follows the table.
package main

import (
	"fmt"
	"log"

	bisect "repro"
)

func main() {
	type family struct {
		name string
		make func() (*bisect.Graph, error)
	}
	r := bisect.NewRand(2024)
	families := []family{
		{"breg(1000,8,3)", func() (*bisect.Graph, error) { return bisect.BReg(1000, 8, 3, r) }},
		{"2set(1000,d3,b16)", func() (*bisect.Graph, error) {
			p, err := bisect.TwoSetForAvgDegree(1000, 3, 16)
			if err != nil {
				return nil, err
			}
			return bisect.TwoSet(1000, p, p, 16, r)
		}},
		{"ladder3N(334)", func() (*bisect.Graph, error) { return bisect.Ladder3N(334) }},
		{"grid 32x32", func() (*bisect.Graph, error) { return bisect.Grid(32, 32) }},
		{"gnp(1000,d3)", func() (*bisect.Graph, error) { return bisect.GNP(1000, 3.0/999, r) }},
	}

	fmt.Printf("%-22s %-8s %-8s %-8s %-10s\n", "family", "KL", "CKL", "MLKL", "λ2·n/4")
	var boundErrs []string
	for _, f := range families {
		g, err := f.make()
		if err != nil {
			log.Fatal(err)
		}
		if g.N()%2 != 0 {
			log.Fatalf("%s: odd vertex count", f.name)
		}
		row := fmt.Sprintf("%-22s", f.name)
		for _, alg := range []bisect.Bisector{
			bisect.KL{},
			bisect.Compacted{Inner: bisect.KL{}},
			bisect.Multilevel{Inner: bisect.KL{}},
		} {
			b, err := bisect.BestOf{Inner: alg, Starts: 2}.Bisect(g, bisect.NewRand(5))
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf("%-8d", b.Cut())
		}
		if lb, err := bisect.SpectralLowerBound(g, bisect.SpectralOptions{}, bisect.NewRand(6)); err != nil {
			row += "–"
			boundErrs = append(boundErrs, fmt.Sprintf("  %s: %v", f.name, err))
		} else {
			row += fmt.Sprintf("%-10.1f", lb)
		}
		fmt.Println(row)
	}
	if len(boundErrs) > 0 {
		fmt.Println("\nNo bound, because the Fiedler solve failed:")
		for _, e := range boundErrs {
			fmt.Println(e)
		}
	}
	fmt.Println("\nReading the table: on breg, compaction and multilevel take KL from")
	fmt.Println("far above the planted width down to it. On 2set at average degree 3")
	fmt.Println("all three cut below the planted 16: at low degree the model's optimum")
	fmt.Println("can lie below its planted width, as the paper warns. On the ladder they")
	fmt.Println("halve KL's cut to the width of 2, and plain KL already finds the grid's")
	fmt.Println("optimal 32. 2set and gnp at average degree 3 are disconnected, so")
	fmt.Println("λ₂ = 0 bounds nothing; yet every balanced cut of gnp is large, and the")
	fmt.Println("model 'may not distinguish good heuristics from mediocre ones' (paper,")
	fmt.Println("Section IV).")
}
