// Package spectral implements spectral bisection: split the vertices
// at the median of the Fiedler vector (the eigenvector of the graph
// Laplacian with the second-smallest eigenvalue). The solver is
// restarted Lanczos with full reorthogonalization — several-fold fewer
// matvecs than the deflated power iteration it replaced on
// well-separated spectra, and a certified answer on small-gap
// instances where power iteration's stopping rule stalls on the wrong
// vector (BENCH_8.json; docs/ALGORITHMS.md). Power iteration survives
// only in the tests, as the Lanczos oracle. A reusable Workspace makes
// warm solves allocation-free.
package spectral

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Options configures the Fiedler solver.
type Options struct {
	// MaxIters caps the total number of Laplacian matvecs over all
	// Lanczos restarts (default 500).
	MaxIters int
	// Tol is the convergence threshold (default 1e-7): the solve
	// converges when the Ritz residual ‖Lx − λ₂x‖, relative to the
	// spectral shift c = 2·max weighted degree, drops below Tol.
	Tol float64
	// MaxBasis bounds the Lanczos basis (default 32 vectors). Larger
	// bases converge in fewer restarts at the cost of O(MaxBasis·n)
	// workspace memory and O(MaxBasis²·n) reorthogonalization work.
	MaxBasis int
	// Workspace, when non-nil, supplies reusable solver storage so
	// steady-state solves allocate nothing. The returned Fiedler
	// vector aliases it and is valid until the workspace's next use.
	Workspace *Workspace
	// Stats, when non-nil, is filled with counters from the solve.
	Stats *Stats
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	if o.MaxBasis <= 0 {
		o.MaxBasis = 32
	}
	return o
}

// Stats reports counters from a Fiedler solve.
type Stats struct {
	// MatVecs is the number of Laplacian matrix-vector products — the
	// dominant cost of a solve and the unit BENCH_8 compares.
	MatVecs int
	// Restarts counts Lanczos restarts.
	Restarts int
	// Residual is the final eigenresidual estimate ‖Lx − λ₂x‖
	// relative to the spectral shift c.
	Residual float64
	// Lambda2 is the solver's estimate of the algebraic connectivity.
	Lambda2 float64
	// Converged reports whether the solve passed Tol within MaxIters.
	Converged bool
}

// ErrNotConverged reports that the solver exhausted its MaxIters
// matvec budget before passing Tol. It is returned ALONGSIDE the best
// estimate so far: Fiedler still hands back a usable (deflated, unit)
// vector and Bisect a valid bisection, so callers may treat the error
// as a quality warning rather than a failure.
type ErrNotConverged struct {
	// Residual is the last eigenresidual estimate, relative to the
	// spectral shift c.
	Residual float64
	// Tol is the threshold the residual failed to pass.
	Tol float64
	// MatVecs is the number of matvecs spent.
	MatVecs int
}

func (e *ErrNotConverged) Error() string {
	return fmt.Sprintf("spectral: not converged after %d matvecs (residual %.3g > tol %.3g)",
		e.MatVecs, e.Residual, e.Tol)
}

// IsNotConverged reports whether err is (or wraps) an *ErrNotConverged.
func IsNotConverged(err error) bool {
	var e *ErrNotConverged
	return errors.As(err, &e)
}

// Fiedler approximates the Fiedler vector of g with the restarted
// Lanczos solver. It runs on M = cI − L with the all-ones vector
// deflated, so the dominant remaining eigendirection is the Laplacian's
// second-smallest, and draws its deterministic start vector from r.
// The returned vector has unit Euclidean norm and zero mean; for
// edgeless graphs it is an arbitrary zero-mean unit vector. When the
// solve stops at MaxIters the vector is returned together with
// *ErrNotConverged; any other error means no usable vector. With
// Options.Workspace set the result aliases workspace storage.
func Fiedler(g *graph.Graph, opts Options, r *rng.Rand) ([]float64, error) {
	o := opts.withDefaults()
	if g.N() == 0 {
		return nil, fmt.Errorf("spectral: empty graph")
	}
	w := o.Workspace
	if w == nil {
		w = NewWorkspace()
	}
	w.ensure(g)
	return w.lanczosFiedler(g, o, r)
}

// Bisect splits g at the median Fiedler value: the n/2 vertices with
// the smallest Fiedler coordinates form side 0 (ties broken by vertex
// id via stable sorting, then randomness only through the solver's
// start vector). The result is exactly balanced by vertex count. A
// *ErrNotConverged from the solver is passed through alongside the
// (still valid) bisection; other errors return nil.
func Bisect(g *graph.Graph, opts Options, r *rng.Rand) (*partition.Bisection, error) {
	f, ferr := Fiedler(g, opts, r)
	if ferr != nil && !IsNotConverged(ferr) {
		return nil, ferr
	}
	p, err := medianSplit(g, f)
	if err != nil {
		return nil, err
	}
	return p, ferr
}

// medianSplit puts the n/2 vertices with the smallest coordinates of f
// on side 0, breaking ties by vertex id.
func medianSplit(g *graph.Graph, f []float64) (*partition.Bisection, error) {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return f[order[a]] < f[order[b]] })
	side := make([]uint8, n)
	for i, v := range order {
		if i >= n/2 {
			side[v] = 1
		}
	}
	return partition.New(g, side)
}
