// Package bisect is a Go library for graph bisection, reproducing and
// extending the algorithms of Bui, Heigham, Jones & Leighton, "Improving
// the Performance of the Kernighan-Lin and Simulated Annealing Graph
// Bisection Algorithms" (DAC 1989).
//
// The library provides:
//
//   - weighted undirected graphs with builders, validation, and two
//     file formats: the native edge list and a memory-mapped binary CSR
//     image, which LoadGraphFile tells apart;
//   - the paper's graph models (𝒢np, 𝒢2set planted bisection, 𝒢breg
//     regular planted width) and special families (ladders, grids,
//     binary trees, and paths, cycles, hypercubes, complete bipartite
//     graphs and caterpillars, whose known widths test the solvers);
//   - the Kernighan–Lin and simulated-annealing bisection algorithms,
//     the compaction heuristic (CKL, CSA), and extensions: multilevel
//     (recursive compaction) and spectral bisection;
//   - exact solvers for validation (branch-and-bound, cycle-collection
//     and forest DPs);
//   - an experiment harness reproducing every table in the paper's
//     appendix and checking its five Observations.
//
// Quickstart:
//
//	g, _ := bisect.BReg(2000, 16, 3, bisect.NewRand(1))
//	alg, _ := bisect.NewBisector("ckl")
//	b, _ := alg.Bisect(g, bisect.NewRand(2))
//	fmt.Println("cut:", b.Cut())
//
// All algorithms are deterministic given their random source, so results
// are exactly reproducible.
package bisect
