package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
)

// WithControl returns a copy of b whose runs, and the runs of every
// bisector it wraps, honor ctl: they poll it at coarse checkpoints (KL
// pass boundaries, SA temperature boundaries, multilevel level
// boundaries, multi-start boundaries) and, when it stops, return their
// valid best-so-far bisection together with the stop sentinel
// (runctl.IsStop reports true for it), so one shared budget or context
// governs the whole composition. A control that never stops changes no
// result: checkpoints poll but never fire. Random and Spectral run to
// completion in one shot and are returned unchanged, as is b for a nil
// ctl, preserving the nil fast path.
func WithControl(b Bisector, ctl *runctl.Control) Bisector {
	if ctl == nil {
		return b
	}
	return attach(b, companions{ctl: ctl})
}

// BisectCtx runs b on g under ctx. On cancellation or deadline the run
// stops at its next checkpoint and returns its valid best-so-far
// bisection together with ctx's error; use runctl.IsStop (or errors.Is
// against context.Canceled / context.DeadlineExceeded) to tell an
// interrupted result from a failed one. Existing Bisector
// implementations need no changes: anything WithControl reaches is
// interrupted cooperatively, anything else simply runs to completion.
// With a never-cancelled context the result is byte-identical to
// b.Bisect.
func BisectCtx(ctx context.Context, b Bisector, g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	return WithControl(b, runctl.FromContext(ctx)).Bisect(g, r)
}
