package core

import (
	"context"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
)

// Controllable is a Bisector whose runs honor a runctl.Control: they
// poll it at coarse checkpoints (KL pass boundaries, SA temperature
// boundaries, multilevel level boundaries, multi-start boundaries) and,
// when it stops, return their valid best-so-far bisection together with
// the stop sentinel (runctl.IsStop reports true for it). All the
// algorithmic bisectors and the composing drivers implement it; the
// trivial baselines run to completion in one shot and do not.
type Controllable interface {
	Bisector
	// WithControl returns a copy of the bisector whose runs poll ctl.
	// The receiver is not modified. With a nil ctl — or a control that
	// never stops — the returned bisector produces exactly the same
	// bisections as the receiver (checkpoints poll but never fire).
	WithControl(ctl *runctl.Control) Bisector
}

// WithControl attaches ctl to b if b is Controllable; otherwise — and
// for a nil ctl — it returns b unchanged, preserving the nil fast path.
// Composing drivers propagate the same control to their inner bisectors,
// so one shared budget or context governs the whole composition.
func WithControl(b Bisector, ctl *runctl.Control) Bisector {
	if ctl == nil {
		return b
	}
	if c, ok := b.(Controllable); ok {
		return c.WithControl(ctl)
	}
	return b
}

// withControlRefinable attaches ctl to b, keeping the RefinableBisector
// interface when the controlled copy still satisfies it (it does for the
// concrete algorithms; the fallback covers exotic user implementations).
func withControlRefinable(b RefinableBisector, ctl *runctl.Control) RefinableBisector {
	if rb, ok := WithControl(b, ctl).(RefinableBisector); ok {
		return rb
	}
	return b
}

// BisectCtx runs b on g under ctx. On cancellation or deadline the run
// stops at its next checkpoint and returns its valid best-so-far
// bisection together with ctx's error; use runctl.IsStop (or errors.Is
// against context.Canceled / context.DeadlineExceeded) to tell an
// interrupted result from a failed one. Existing Bisector
// implementations need no changes: anything Controllable is interrupted
// cooperatively, anything else simply runs to completion. With a
// never-cancelled context the result is byte-identical to b.Bisect.
func BisectCtx(ctx context.Context, b Bisector, g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	return WithControl(b, runctl.FromContext(ctx)).Bisect(g, r)
}

// RefineCtx improves bis in place under ctx; the refinement stops at its
// next checkpoint when ctx is done, leaving bis at the last completed
// checkpoint's state, and returns ctx's error. See BisectCtx.
func RefineCtx(ctx context.Context, b RefinableBisector, bis *partition.Bisection, r *rng.Rand) error {
	return withControlRefinable(b, runctl.FromContext(ctx)).Refine(bis, r)
}

// WithControl implements Controllable for KL.
func (a KL) WithControl(ctl *runctl.Control) Bisector {
	a.Opts.Control = ctl
	return a
}

// WithControl implements Controllable for SA.
func (a SA) WithControl(ctl *runctl.Control) Bisector {
	a.Opts.Control = ctl
	return a
}

// WithControl implements Controllable for Compacted: the control reaches
// the inner bisector, which polls it during both the coarse solve and
// the final refinement — the two places a compacted run spends its time.
func (c Compacted) WithControl(ctl *runctl.Control) Bisector {
	if c.Inner != nil {
		c.Inner = withControlRefinable(c.Inner, ctl)
	}
	return c
}

// WithControl implements Controllable for Multilevel: the driver polls
// before every coarsening level and the same control reaches the inner
// bisector's solves and refinements at every level. The options are
// copied, never mutated in place.
func (m Multilevel) WithControl(ctl *runctl.Control) Bisector {
	var o coarsen.MultilevelOptions
	if m.Opts != nil {
		o = *m.Opts
	}
	o.Control = ctl
	m.Opts = &o
	if m.Inner != nil {
		m.Inner = withControlRefinable(m.Inner, ctl)
	}
	return m
}

// WithControl implements Controllable for BestOf: the driver polls
// between starts (never before the first, so an already-stopped control
// still yields one valid best-so-far candidate from the inner run's own
// checkpoints) and the same control reaches every inner run.
func (b BestOf) WithControl(ctl *runctl.Control) Bisector {
	b.Control = ctl
	if b.Inner != nil {
		b.Inner = WithControl(b.Inner, ctl)
	}
	return b
}
