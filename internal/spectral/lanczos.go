package spectral

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// This file implements the restarted Lanczos Fiedler solver. It runs
// the Lanczos recurrence on the shifted operator M = cI − L (c = 2·max
// weighted degree), whose dominant eigenpair in the complement of the
// all-ones vector is (c − λ₂, the Fiedler vector):
//
//	β_j q_{j+1} = M q_j − α_j q_j − β_{j−1} q_{j−1}
//
// with full reorthogonalization of every new vector against the
// bounded basis q_0..q_j (and re-deflation against the all-ones
// vector, which keeps rounding drift from re-admitting the trivial
// eigenpair). After at most MaxBasis steps the small symmetric
// tridiagonal T = tridiag(β, α, β) is diagonalized directly (tql2) and
// the Ritz vector for its largest eigenvalue θ assembled from the
// basis. The Ritz residual ‖M y − θ y‖ equals |β_m · s_m| exactly (s =
// T's eigenvector, s_m its last component), so convergence is checked
// for free; if the relative residual still exceeds Tol the recurrence
// restarts from the Ritz vector. Each restart squeezes the whole
// Krylov space's worth of progress out of MaxBasis matvecs, which is
// why Lanczos reaches the split in orders of magnitude fewer matvecs
// than power iteration (BENCH_8.json; docs/ALGORITHMS.md).

// breakdownEps declares a Lanczos breakdown when the next basis vector's
// norm (relative to the shift c) falls below it: the Krylov space is an
// invariant subspace and the Ritz pairs in it are exact.
const breakdownEps = 1e-14

// lanczos runs the restarted Lanczos solver. The result vector aliases
// workspace storage. A non-nil error is either *ErrNotConverged (with a
// usable best-estimate vector alongside) or a hard solver failure.
func (w *Workspace) lanczosFiedler(g *graph.Graph, o Options, r *rng.Rand) ([]float64, error) {
	n, c := w.n, w.cshift
	mb := o.MaxBasis
	if mb > n {
		mb = n
	}
	w.ensureLanczos(mb)

	// Deterministic start vector: the same n draws the power-iteration
	// oracle in the tests uses.
	x := w.x
	for i := range x {
		x[i] = float64(r.Float64()) - 0.5
	}
	w.deflate(x)
	w.normalize(x)

	matvecs, restarts := 0, 0
	resid := math.Inf(1)
	var theta float64
	converged := false
	for {
		// One Lanczos factorization from q_0 = x.
		copy(w.basisVec(0), x)
		m := 0
		var betaLast float64
		for j := 0; j < mb; j++ {
			qj := w.basisVec(j)
			w.matvec(g, w.y, qj, c)
			matvecs++
			w.alpha[j] = w.dot(qj, w.y)
			w.axpy(w.y, -w.alpha[j], qj)
			if j > 0 {
				w.axpy(w.y, -w.beta[j-1], w.basisVec(j-1))
			}
			// Re-deflate and fully reorthogonalize against the basis:
			// O(j·n) per step, but it is what lets a 32-vector basis
			// act like an exact Krylov space across restarts.
			w.deflate(w.y)
			for i := 0; i <= j; i++ {
				h := w.dot(w.basisVec(i), w.y)
				w.axpy(w.y, -h, w.basisVec(i))
			}
			b := w.nrm(w.y)
			w.beta[j] = b
			m = j + 1
			betaLast = b
			if b <= breakdownEps*c || j == mb-1 || matvecs >= o.MaxIters {
				break
			}
			w.scaleInto(w.basisVec(j+1), 1/b, w.y)
		}

		// Diagonalize T directly and take the largest Ritz value θ:
		// λ₂ = c − θ.
		copy(w.td[:m], w.alpha[:m])
		copy(w.te[:m], w.beta[:m])
		if m > 0 {
			w.te[m-1] = 0
		}
		z := w.tz[:m*m]
		for i := range z {
			z[i] = 0
		}
		for i := 0; i < m; i++ {
			z[i*m+i] = 1
		}
		if !tql2(w.td[:m], w.te[:m], z, m) {
			return x, fmt.Errorf("spectral: tridiagonal eigensolver failed to converge (m=%d)", m)
		}
		kmax := 0
		for k := 1; k < m; k++ {
			if w.td[k] > w.td[kmax] {
				kmax = k
			}
		}
		theta = w.td[kmax]

		// Assemble the Ritz vector x = Σ_j s_j q_j into the iterate.
		w.scaleInto(x, z[kmax], w.basisVec(0))
		for j := 1; j < m; j++ {
			w.axpy(x, z[j*m+kmax], w.basisVec(j))
		}
		w.deflate(x)
		w.normalize(x)

		resid = math.Abs(betaLast*z[(m-1)*m+kmax]) / c
		if resid <= o.Tol {
			converged = true
			break
		}
		if matvecs >= o.MaxIters {
			break
		}
		restarts++
	}

	if o.Stats != nil {
		*o.Stats = Stats{
			MatVecs: matvecs, Restarts: restarts,
			Residual: resid, Lambda2: c - theta,
			Converged: converged,
		}
	}
	if !converged {
		return x, &ErrNotConverged{Residual: resid, Tol: o.Tol, MatVecs: matvecs}
	}
	return x, nil
}

// tql2 diagonalizes a symmetric tridiagonal matrix in place with the
// implicit-shift QL algorithm (EISPACK tql2 lineage): d[0:m] holds the
// diagonal, e[0:m-1] the subdiagonal (e[m-1] must be zero), and z an
// m×m row-major matrix initialized to the identity by the caller. On
// return d holds the eigenvalues (unordered) and column k of z the
// unit eigenvector for d[k]. Returns false if any eigenvalue fails to
// converge (which does not happen for the well-scaled matrices the
// Lanczos recurrence produces). The algorithm is branch-deterministic:
// identical inputs give bit-identical outputs.
func tql2(d, e, z []float64, m int) bool {
	for l := 0; l < m; l++ {
		iter := 0
		for {
			// Find a negligible subdiagonal element.
			sm := l
			for ; sm < m-1; sm++ {
				dd := math.Abs(d[sm]) + math.Abs(d[sm+1])
				if math.Abs(e[sm])+dd == dd {
					break
				}
			}
			if sm == l {
				break
			}
			if iter == 50 {
				return false
			}
			iter++
			// Implicit shift from the leading 2×2.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[sm] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := sm - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[sm] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = float64((d[i]-g)*s) + float64(2*c*b)
				p = float64(s * r)
				d[i+1] = g + p
				g = float64(c*r) - float64(b)
				// Accumulate the rotation into the eigenvector matrix.
				for k := 0; k < m; k++ {
					f := z[k*m+i+1]
					z[k*m+i+1] = float64(s*z[k*m+i]) + float64(c*f)
					z[k*m+i] = float64(c*z[k*m+i]) - float64(s*f)
				}
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[sm] = 0
		}
	}
	return true
}
