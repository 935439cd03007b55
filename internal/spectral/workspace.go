package spectral

import (
	"math"

	"repro/internal/graph"
)

// This file gives the Fiedler solvers a reusable workspace, so
// steady-state solves perform no allocations, and the vector kernels
// they share. Reductions (dot products, sums) use a FIXED block size:
// each block's partial sum is computed serially within the block, and
// the partials are combined serially in block order. The summation
// order therefore depends only on the vector length, which keeps every
// Fiedler vector (and spectral_golden.json) bit-stable.

// dotBlock is the fixed reduction block size.
const dotBlock = 1 << 12

// Workspace holds every buffer the Fiedler solvers need — the Lanczos
// basis slab, tridiagonal scratch, matvec buffers and cached weighted
// degrees — so a warm workspace solves with zero steady-state
// allocations. A Workspace is not safe for concurrent use; the zero
// value is ready to use.
type Workspace struct {
	n int

	x, y []float64 // iterate / matvec destination
	deg  []float64 // cached weighted degrees of the current graph

	basis       []float64 // Lanczos basis slab: mb row-major vectors of length n
	mb          int
	alpha, beta []float64 // tridiagonal diagonal / subdiagonal
	td, te, tz  []float64 // tql2 scratch: eigenvalues, off-diagonal, mb×mb rotations

	cshift float64 // spectral shift c = 2·max weighted degree (≥ 1)
}

// NewWorkspace returns an empty workspace; buffers are sized lazily by
// the first solve.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the base buffers for g and caches the weighted degrees
// and the spectral shift c. Steady-state calls on same-size graphs
// perform no allocations.
func (w *Workspace) ensure(g *graph.Graph) {
	n := g.N()
	w.n = n
	if cap(w.x) < n {
		w.x = make([]float64, n)
	}
	w.x = w.x[:n]
	if cap(w.y) < n {
		w.y = make([]float64, n)
	}
	w.y = w.y[:n]
	if cap(w.deg) < n {
		w.deg = make([]float64, n)
	}
	w.deg = w.deg[:n]
	// Cache weighted degrees and compute the shift c = 2·max weighted
	// degree (≥ 1), which bounds the Laplacian spectrum from above.
	var c float64
	for v := range w.deg {
		d := float64(g.WeightedDegree(int32(v)))
		w.deg[v] = d
		if d > c {
			c = d
		}
	}
	c *= 2
	if c == 0 {
		c = 1
	}
	w.cshift = c
}

// ensureLanczos additionally sizes the Lanczos basis slab for mb
// vectors plus the tridiagonal eigensolver scratch.
func (w *Workspace) ensureLanczos(mb int) {
	w.mb = mb
	if cap(w.basis) < mb*w.n {
		w.basis = make([]float64, mb*w.n)
	}
	w.basis = w.basis[:mb*w.n]
	if cap(w.alpha) < mb {
		w.alpha = make([]float64, mb)
		w.beta = make([]float64, mb)
		w.td = make([]float64, mb)
		w.te = make([]float64, mb)
	}
	w.alpha, w.beta = w.alpha[:mb], w.beta[:mb]
	w.td, w.te = w.td[:mb], w.te[:mb]
	if cap(w.tz) < mb*mb {
		w.tz = make([]float64, mb*mb)
	}
	w.tz = w.tz[:mb*mb]
}

// basisVec returns the j-th Lanczos basis vector.
func (w *Workspace) basisVec(j int) []float64 {
	return w.basis[j*w.n : (j+1)*w.n]
}

// matvec computes dst = (shift·I − L)·src for the graph the workspace
// was sized for. Each row sums its CSR entries in order.
func (w *Workspace) matvec(g *graph.Graph, dst, src []float64, shift float64) {
	deg := w.deg
	for v := range dst {
		sum := (shift - deg[v]) * src[v]
		for _, e := range g.Neighbors(int32(v)) {
			sum += float64(e.W) * src[e.To]
		}
		dst[v] = sum
	}
}

// dot returns a·b with the fixed-block reduction.
func (w *Workspace) dot(a, b []float64) float64 {
	var sum float64
	for lo := 0; lo < w.n; lo += dotBlock {
		hi := min(lo+dotBlock, w.n)
		var part float64
		for i := lo; i < hi; i++ {
			part += a[i] * b[i]
		}
		sum += part
	}
	return sum
}

// sum returns Σ a with the fixed-block reduction.
func (w *Workspace) sum(a []float64) float64 {
	var sum float64
	for lo := 0; lo < w.n; lo += dotBlock {
		hi := min(lo+dotBlock, w.n)
		var part float64
		for i := lo; i < hi; i++ {
			part += a[i]
		}
		sum += part
	}
	return sum
}

// axpy computes dst += c·a.
func (w *Workspace) axpy(dst []float64, c float64, a []float64) {
	for i := range dst {
		dst[i] += c * a[i]
	}
}

// scale computes dst *= c.
func (w *Workspace) scale(dst []float64, c float64) {
	for i := range dst {
		dst[i] *= c
	}
}

// scaleInto computes dst = c·a.
func (w *Workspace) scaleInto(dst []float64, c float64, a []float64) {
	for i := range dst {
		dst[i] = c * a[i]
	}
}

// deflate removes the component along the all-ones vector.
func (w *Workspace) deflate(x []float64) {
	c := -(w.sum(x) / float64(w.n))
	for i := range x {
		x[i] += c
	}
}

// nrm returns the Euclidean norm of x.
func (w *Workspace) nrm(x []float64) float64 {
	return math.Sqrt(w.dot(x, x))
}

// normalize scales x to unit Euclidean norm; a zero vector becomes e₀
// (matching the historical power-iteration fallback).
func (w *Workspace) normalize(x []float64) {
	n := w.nrm(x)
	if n == 0 {
		x[0] = 1
		return
	}
	w.scale(x, 1/n)
}
