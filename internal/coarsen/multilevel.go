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

// RefineFunc improves a bisection in place (e.g. a KL refinement
// pass). It must not unbalance the bisection beyond what it received.
type RefineFunc func(b *partition.Bisection, r *rng.Rand)

// InitialFunc produces a starting bisection of the coarsest graph.
type InitialFunc func(g *graph.Graph, r *rng.Rand) *partition.Bisection

// Multilevel coarsening stops once the graph has at most minSize
// vertices, after maxLevels contractions, or at a contraction that keeps
// more than minRatio of the vertices (|coarse| > 0.95·|fine|), which
// happens on graphs with almost no edges.
const (
	minSize   = 32
	maxLevels = 30
	minRatio  = 0.95
)

// MultilevelOptions configures the recursive compaction driver.
type MultilevelOptions struct {
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
	out := MultilevelOptions{Match: matching.RandomMaximal}
	if o == nil {
		return out
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
	}
	return w.multilevel(g, o, initial, refine, r)
}
