package bisect_test

// Testable examples: these run under `go test` and render in godoc, so
// the documented usage is guaranteed to stay correct.

import (
	"fmt"

	bisect "repro"
)

func ExampleNewBisector() {
	// A 3-regular graph on 500 vertices with a planted bisection of width 8.
	g, err := bisect.BReg(500, 8, 3, bisect.NewRand(1))
	if err != nil {
		panic(err)
	}
	ckl, err := bisect.NewBisector("ckl")
	if err != nil {
		panic(err)
	}
	b, err := bisect.BestOf{Inner: ckl, Starts: 2}.Bisect(g, bisect.NewRand(2))
	if err != nil {
		panic(err)
	}
	fmt.Println("cut:", b.Cut())
	fmt.Println("balanced:", b.Imbalance() == 0)
	// Output:
	// cut: 8
	// balanced: true
}

func ExampleBuilder() {
	b := bisect.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddWeightedEdge(2, 3, 5)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	fmt.Println(g.N(), "vertices,", g.M(), "edges, total weight", g.TotalEdgeWeight())
	// Output:
	// 4 vertices, 3 edges, total weight 7
}

func ExampleNewBisection() {
	g, _ := bisect.Cycle(6)
	// Contiguous halves of a cycle cut exactly two edges.
	b, err := bisect.NewBisection(g, []uint8{0, 0, 0, 1, 1, 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("cut:", b.Cut())
	// Moving a boundary vertex across changes the cut by its gain.
	fmt.Println("gain of vertex 0:", b.Gain(0))
	// Output:
	// cut: 2
	// gain of vertex 0: 0
}

func ExampleCompacted() {
	// The paper's compaction heuristic wrapping Kernighan–Lin.
	g, _ := bisect.Ladder(100) // 200-vertex ladder; bisection width 2
	ckl := bisect.Compacted{Inner: bisect.KL{}}
	b, err := bisect.BestOf{Inner: ckl, Starts: 2}.Bisect(g, bisect.NewRand(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("ladder cut:", b.Cut())
	// Output:
	// ladder cut: 2
}

func ExampleTreeBisectionWidth() {
	// Exact optimum for a forest in O(n²): a 1022-node complete binary
	// tree splits 511/511 by cutting the root's left edge.
	tree, _ := bisect.CompleteBinaryTree(1022)
	width, _, err := bisect.TreeBisectionWidth(tree)
	if err != nil {
		panic(err)
	}
	fmt.Println("optimal width:", width)
	// Output:
	// optimal width: 1
}

func ExampleExactBisectionWidth() {
	g, _ := bisect.Hypercube(3)
	width, _, err := bisect.ExactBisectionWidth(g)
	if err != nil {
		panic(err)
	}
	fmt.Println("Q3 bisection width:", width)
	// Output:
	// Q3 bisection width: 4
}
