package coarsen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// MatchFunc produces a matching of g (e.g. matching.RandomMaximal).
type MatchFunc func(g *graph.Graph, r *rng.Rand) []int32

// RefineFunc improves a bisection in place (e.g. a KL or FM refinement
// pass). It must not unbalance the bisection beyond what it received.
type RefineFunc func(b *partition.Bisection, r *rng.Rand)

// InitialFunc produces a starting bisection of the coarsest graph.
type InitialFunc func(g *graph.Graph, r *rng.Rand) *partition.Bisection

// MultilevelOptions configures the recursive compaction driver.
type MultilevelOptions struct {
	// MinSize stops coarsening once the graph has at most this many
	// vertices (default 32).
	MinSize int
	// MaxLevels bounds the coarsening depth (default 30).
	MaxLevels int
	// MinRatio aborts coarsening when a level shrinks the graph by less
	// than this factor (default 0.95: stop if |coarse| > 0.95·|fine|),
	// which happens on graphs with almost no edges.
	MinRatio float64
	// Match selects the matching policy (default matching.RandomMaximal).
	Match MatchFunc
	// Observer, when non-nil, receives level_done trace events for every
	// coarsening contraction, the coarsest solve, and every uncoarsening
	// projection (see docs/OBSERVABILITY.md); nil costs nothing.
	Observer trace.Observer
	// Workspace, when non-nil, supplies the reusable compaction arena:
	// matchings (when Match is left nil), contractions, level graphs, and
	// interior projections all run in its buffers, so repeated Multilevel
	// runs reach a zero-allocation steady state for everything but the
	// returned bisection. Results are identical with or without one. The
	// workspace must not be shared across goroutines; nil allocates an
	// ephemeral arena per run.
	Workspace *Workspace
	// ParallelDegree, when > 1, runs the contraction phase on that many
	// goroutines within a single run for graphs with at least
	// ParallelMinVertices vertices (results are identical at any degree;
	// see parallel.go). Matching is always serial. The pool attaches to
	// the Workspace, so reuse a Workspace across runs to amortize it.
	ParallelDegree int
	// SpectralInit seeds the coarsest-level solve from the spectral
	// median split (see internal/spectral) instead of the initial
	// bisector: the coarsest graph is small, so the Lanczos solve is
	// cheap, and the per-level refinement then starts from a globally
	// informed cut rather than a random one — the "+spec" algorithm
	// variants in the core registry. The initial bisector remains the
	// fallback if the spectral solve fails outright; a solve that merely
	// stops at its matvec budget still seeds with its best-effort split.
	SpectralInit bool
	// Control, when non-nil, is polled once before every coarsening
	// level. When it stops, coarsening halts where it stands and the
	// driver still solves the coarsest graph reached and projects back up
	// to the original graph (projection and balance repair are cheap and
	// required for a valid result; per-level refinement is skipped), so
	// Multilevel always returns a valid bisection of g together with the
	// stop sentinel (see internal/runctl and docs/ROBUSTNESS.md). The
	// inner bisector's own Control governs interruption inside a level.
	Control *runctl.Control
}

func (o *MultilevelOptions) withDefaults() MultilevelOptions {
	out := MultilevelOptions{MinSize: 32, MaxLevels: 30, MinRatio: 0.95, Match: matching.RandomMaximal}
	if o == nil {
		return out
	}
	if o.MinSize > 0 {
		out.MinSize = o.MinSize
	}
	if o.MaxLevels > 0 {
		out.MaxLevels = o.MaxLevels
	}
	if o.MinRatio > 0 {
		out.MinRatio = o.MinRatio
	}
	out.Workspace = o.Workspace
	if o.Match != nil {
		out.Match = o.Match
	} else if out.Workspace != nil {
		// Default to the workspace matching so the arena covers the match
		// phase too; the stream (and thus every result) is identical to
		// matching.RandomMaximal.
		out.Match = out.Workspace.RandomMaximal
	}
	out.Observer = o.Observer
	out.Control = o.Control
	out.ParallelDegree = o.ParallelDegree
	out.SpectralInit = o.SpectralInit
	return out
}

// Multilevel runs the full recursive compaction pipeline — the natural
// generalization of the paper's single compaction level (and the idea its
// companion "recursive coalescing" work develops): coarsen by repeated
// matching contraction, bisect the coarsest graph with initial, then
// uncoarsen level by level, repairing balance and running refine at each
// level. Returns the final fine-graph bisection.
func Multilevel(g *graph.Graph, opts *MultilevelOptions, initial InitialFunc, refine RefineFunc, r *rng.Rand) (*partition.Bisection, error) {
	o := opts.withDefaults()
	if initial == nil {
		return nil, fmt.Errorf("coarsen: Multilevel needs an initial bisector")
	}
	w := o.Workspace
	if w == nil {
		w = NewWorkspace()
		defer w.Close() // release the ephemeral pool's parked goroutines
	}
	if o.ParallelDegree > 0 {
		w.SetParallel(o.ParallelDegree)
	}
	return w.multilevel(g, o, initial, refine, r)
}

// CompactOnce performs exactly one level of the paper's compaction: match,
// contract, solve the coarse graph with initial+refine, project back, and
// repair balance. The returned bisection of g is the "good starting
// bisection" that the caller then hands to the full bisection procedure.
//
// A non-nil obs receives a "coarsen" level_done after the contraction and
// an "uncoarsen" level_done after the projection back to g; nil skips all
// tracing work.
func CompactOnce(g *graph.Graph, match MatchFunc, initial InitialFunc, refine RefineFunc, r *rng.Rand, obs trace.Observer) (*partition.Bisection, error) {
	return NewWorkspace().CompactOnce(g, match, initial, refine, r, obs)
}
