package core

import (
	"repro/internal/coarsen"
)

// Parallelizable is a Bisector that can use several goroutines WITHIN a
// single run — sharded contraction in the compaction pipeline and the
// two-sided gain-bucket fill of the KL refiner — as opposed to
// ParallelBestOf, which parallelizes ACROSS independent runs. The
// contract is strict determinism: both kernels reproduce their serial
// output byte for byte, so a parallelizable bisector returns the same
// bisection at every degree, and they engage only above the
// per-package ParallelMinVertices thresholds. FM, SA and spectral have
// no within-run kernel and run serially at every degree.
type Parallelizable interface {
	Bisector
	// WithParallel returns a copy of the bisector whose runs use up to
	// degree goroutines for their internal phases. The receiver is not
	// modified. Degree ≤ 1 returns an equivalent serial bisector.
	WithParallel(degree int) Bisector
}

// WithParallel attaches a within-run parallel degree to b if b is
// Parallelizable; otherwise (or for degree ≤ 1) it returns b unchanged.
func WithParallel(b Bisector, degree int) Bisector {
	if degree <= 1 {
		return b
	}
	if p, ok := b.(Parallelizable); ok {
		return p.WithParallel(degree)
	}
	return b
}

// withParallelRefinable is WithParallel keeping the RefinableBisector
// interface (it holds for the concrete algorithms; the fallback covers
// exotic user implementations).
func withParallelRefinable(b RefinableBisector, degree int) RefinableBisector {
	if rb, ok := WithParallel(b, degree).(RefinableBisector); ok {
		return rb
	}
	return b
}

// WithParallel implements Parallelizable for KL (concurrent gain-bucket
// filling on large graphs).
func (a KL) WithParallel(degree int) Bisector {
	a.Opts.ParallelDegree = degree
	return a
}

// WithParallel implements Parallelizable for Compacted: the contraction
// shards across the degree (the pool attaches to the compaction
// workspace at Bisect time), and the inner bisector is parallelized too.
func (c Compacted) WithParallel(degree int) Bisector {
	c.ParallelDegree = degree
	if c.Inner != nil {
		c.Inner = withParallelRefinable(c.Inner, degree)
	}
	return c
}

// WithParallel implements Parallelizable for Multilevel: every level's
// contraction shards across the degree, and the inner bisector is
// parallelized too. The options are copied, never mutated in place.
func (m Multilevel) WithParallel(degree int) Bisector {
	var o coarsen.MultilevelOptions
	if m.Opts != nil {
		o = *m.Opts
	}
	o.ParallelDegree = degree
	m.Opts = &o
	if m.Inner != nil {
		m.Inner = withParallelRefinable(m.Inner, degree)
	}
	return m
}

// WithParallel implements Parallelizable for BestOf by parallelizing the
// inner bisector within each sequential start.
func (b BestOf) WithParallel(degree int) Bisector {
	if b.Inner != nil {
		b.Inner = WithParallel(b.Inner, degree)
	}
	return b
}

// Compile-time checks for the parallelizable set.
var (
	_ Parallelizable = KL{}
	_ Parallelizable = Compacted{}
	_ Parallelizable = Multilevel{}
	_ Parallelizable = BestOf{}
)

// Release closes the worker pools owned by the workspaces attached to b
// (see WithWorkspace): the KL refiner's and the compaction arena's,
// through any Compacted, Multilevel or BestOf nesting. Their parked
// goroutines would otherwise outlive b. Drivers that build workspaces
// release them when done, and so does bisectd when it discards a
// worker's bisectors. b stays usable; a later parallel run opens a new
// pool.
func Release(b Bisector) {
	switch a := b.(type) {
	case KL:
		if a.Opts.Workspace != nil {
			a.Opts.Workspace.Close()
		}
	case Compacted:
		if a.Workspace != nil {
			a.Workspace.Close()
		}
		Release(a.Inner)
	case Multilevel:
		if a.Opts != nil && a.Opts.Workspace != nil {
			a.Opts.Workspace.Close()
		}
		Release(a.Inner)
	case BestOf:
		Release(a.Inner)
	}
}
