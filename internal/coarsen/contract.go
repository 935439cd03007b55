// Package coarsen implements the paper's compaction heuristic: contract
// the edges of a (random maximal) matching to obtain a smaller, denser
// graph, bisect the contracted graph, and project the result back to the
// original graph as a high-quality starting bisection.
//
// Contraction is weight-preserving: merged parallel edges sum their
// weights and merged vertices sum their vertex weights, so the weighted
// cut of any coarse bisection equals the cut of its projection, and
// weight balance on the coarse graph is vertex-count balance on the fine
// graph. These two invariants are what make compaction sound, and both
// are checked by the test suite.
//
// Contraction runs on a direct fine-CSR → coarse-CSR kernel (see
// Workspace in workspace.go): coarse ids are assigned in one sweep,
// then every fine half-edge is scattered into its head's coarse row in
// order of coarse source, so each row comes out sorted with parallel
// edges folded at its end, and the coarse graph adopts the buffers via
// graph.ResetCSR — no graph.Builder, no sort, no per-edge allocations.
// Every contraction runs in a Workspace, which reuses every buffer
// across levels and runs; Multilevel without a workspace option creates
// one per call. A fresh workspace and a reused one both produce graphs
// byte-identical to the original Builder-based path, as the golden
// fixture in testdata (captured from that path) pins.
package coarsen

import "repro/internal/graph"

// Contraction records the correspondence between a fine graph and the
// coarse graph obtained by contracting a matching.
type Contraction struct {
	Fine   *graph.Graph
	Coarse *graph.Graph
	// Map[v] is the coarse vertex containing fine vertex v.
	Map []int32
	// members packs the fine vertices merged into each coarse vertex,
	// two slots per coarse id (a matching contracts at most pairs);
	// slot 2c+1 is −1 for an uncontracted singleton.
	members []int32
	// owner is the workspace level whose buffers back this contraction.
	owner *level
}

// Ratio returns the coarsening ratio |coarse| / |fine| (1.0 when nothing
// was contracted, 0.5 for a perfect matching).
func (c *Contraction) Ratio() float64 {
	if c.Fine.N() == 0 {
		return 1
	}
	return float64(c.Coarse.N()) / float64(c.Fine.N())
}
