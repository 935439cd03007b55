package spectral

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// powerFiedler is deflated power iteration on M = cI − L, the solver
// Lanczos replaced, kept as its oracle. It draws the same start vector
// from r as Fiedler and stops on its historical criterion, the iterate
// change under the infinity norm falling below Tol. One iteration is one
// matvec; a final extra matvec computes the Rayleigh quotient and true
// residual for Stats/ErrNotConverged.
func (w *Workspace) powerFiedler(g *graph.Graph, opts Options, r *rng.Rand) ([]float64, error) {
	o := opts.withDefaults()
	w.ensure(g)
	c := w.cshift
	x, y := w.x, w.y
	for i := range x {
		x[i] = float64(r.Float64()) - 0.5
	}
	w.deflate(x)
	w.normalize(x)
	matvecs := 0
	converged := false
	for iter := 0; iter < o.MaxIters; iter++ {
		w.matvec(g, y, x, c)
		matvecs++
		w.deflate(y)
		if w.nrm(y) < 1e-12 {
			// Iterate collapsed (e.g. x was already an exact
			// eigenvector of the deflated complement); restart from
			// fresh noise.
			for i := range y {
				y[i] = float64(r.Float64()) - 0.5
			}
			w.deflate(y)
		}
		w.normalize(y)
		d := 0.0
		for i := range x {
			if diff := math.Abs(y[i] - x[i]); diff > d {
				d = diff
			}
		}
		x, y = y, x
		if d < o.Tol {
			converged = true
			break
		}
	}
	// One extra matvec yields the Rayleigh quotient θ = xᵀMx (x is
	// unit) and the exact relative residual ‖Mx − θx‖/c.
	w.matvec(g, y, x, c)
	matvecs++
	theta := w.dot(x, y)
	w.axpy(y, -theta, x)
	resid := w.nrm(y) / c
	if o.Stats != nil {
		*o.Stats = Stats{
			MatVecs: matvecs, Residual: resid,
			Lambda2: c - theta, Converged: converged,
		}
	}
	if !converged {
		return x, &ErrNotConverged{Residual: resid, Tol: o.Tol, MatVecs: matvecs}
	}
	return x, nil
}
