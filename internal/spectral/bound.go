package spectral

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Lambda2 estimates the second-smallest Laplacian eigenvalue (the
// algebraic connectivity) as the Rayleigh quotient of the computed
// Fiedler vector: λ₂ ≈ xᵀLx / xᵀx. The solver converges to the true
// Fiedler direction, so the estimate is an upper bound on λ₂ that
// tightens with Tol; for certification purposes treat it as an
// estimate, not an exact value. If the solver stops at its MaxIters
// budget the estimate from the best vector so far is returned
// alongside *ErrNotConverged.
func Lambda2(g *graph.Graph, opts Options, r *rng.Rand) (float64, error) {
	x, err := Fiedler(g, opts, r)
	if err != nil && !IsNotConverged(err) {
		return 0, err
	}
	return rayleigh(g, x), err
}

// rayleigh computes xᵀLx / xᵀx = Σ_{(u,v)∈E} w(u,v)(x_u − x_v)² / Σ x_v².
func rayleigh(g *graph.Graph, x []float64) float64 {
	var num float64
	g.Edges(func(u, v, w int32) {
		d := x[u] - x[v]
		num += float64(float64(w) * d * d)
	})
	var den float64
	for _, v := range x {
		den += float64(v * v)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// BisectionLowerBound returns the classical spectral lower bound on the
// bisection width of a 2n-vertex graph: width ≥ λ₂·n/2 = λ₂·|V|/4
// (Fiedler/Donath–Hoffman). Because Lambda2 is an estimate from above,
// the returned value is an estimate, not a certificate; cmd/cutstat
// reports a cut's slack against it. The graph must have an even number
// of vertices. A *ErrNotConverged from the solver is passed through
// alongside the best-effort value, which then bounds nothing.
func BisectionLowerBound(g *graph.Graph, opts Options, r *rng.Rand) (float64, error) {
	if g.N()%2 != 0 {
		return 0, fmt.Errorf("spectral: odd vertex count %d", g.N())
	}
	if g.N() == 0 {
		return 0, nil
	}
	l2, err := Lambda2(g, opts, r)
	if err != nil && !IsNotConverged(err) {
		return 0, err
	}
	return l2 * float64(g.N()) / 4, err
}
