// Package runctl provides cooperative run control for the long-running
// algorithms: cancellation (from a context.Context), wall-clock deadlines
// (via context deadlines), and deterministic checkpoint budgets.
//
// A *Control is polled at coarse algorithm checkpoints — once per KL
// pass, once per SA temperature, once per multilevel coarsening level,
// once between BestOf starts — never inside a hot inner loop, so an
// attached control costs a few nanoseconds per pass and a nil control
// costs one predicted branch. When a checkpoint fires, the algorithm
// stops where it stands, materializes its valid best-so-far result, and
// returns it together with a typed sentinel (ErrBudgetExceeded,
// context.Canceled, or context.DeadlineExceeded) instead of tearing the
// run down. Callers test for truncation with IsStop and decide whether
// the partial result is usable.
//
// Controls never touch the random stream: attaching one to a run that is
// not cancelled produces bit-identical results to no control at all (the
// golden fixtures pin this).
package runctl

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrBudgetExceeded is returned by Check (and surfaced by algorithms)
// when a checkpoint budget runs out. Unlike a context error it is fully
// deterministic: the k-th checkpoint of a run under budget k fires no
// matter how fast the machine is, which is what the cancellation
// invariant tests replay against.
var ErrBudgetExceeded = errors.New("runctl: checkpoint budget exceeded")

// Control is a cooperative cancellation handle. The zero value is not
// useful; construct one with New, FromContext, or WithBudget. A nil
// *Control is valid everywhere and means "never stop".
//
// A Control may be shared across goroutines: the budget is decremented
// atomically, and a shared budget is consumed jointly by all checkpoints
// that poll it.
type Control struct {
	ctx     context.Context // nil when only a budget is attached
	done    <-chan struct{} // ctx.Done(), cached
	limited bool
	budget  atomic.Int64 // remaining checkpoint polls when limited
	spent   atomic.Bool  // a budget checkpoint has fired
}

// New returns a control that stops when ctx is cancelled (or passes its
// deadline) or after budget checkpoint polls, whichever comes first.
// budget <= 0 means unlimited polls; a nil or never-cancelled ctx with an
// unlimited budget returns nil (the free no-op control).
func New(ctx context.Context, budget int64) *Control {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil && budget <= 0 {
		return nil
	}
	c := &Control{ctx: ctx, done: done, limited: budget > 0}
	c.budget.Store(budget)
	return c
}

// FromContext returns a control mirroring ctx's cancellation, or nil for
// a nil / never-cancelled context.
func FromContext(ctx context.Context) *Control { return New(ctx, 0) }

// WithBudget returns a control that stops after n checkpoint polls
// (nil when n <= 0).
func WithBudget(n int64) *Control { return New(nil, n) }

// Check polls the control at an algorithm checkpoint. It returns nil to
// continue, or the stop sentinel — the context's error, or
// ErrBudgetExceeded when this poll exhausts the budget. Each call on a
// limited control consumes one unit of budget; cancellation is checked
// first, so a cancelled run stops at its next checkpoint regardless of
// remaining budget.
func (c *Control) Check() error {
	if c == nil {
		return nil
	}
	if c.done != nil {
		select {
		case <-c.done:
			return c.ctx.Err()
		default:
		}
	}
	if c.limited && c.budget.Add(-1) < 0 {
		c.spent.Store(true)
		return ErrBudgetExceeded
	}
	return nil
}

// Err reports whether the control has already stopped — without
// consuming budget. It returns the same sentinel a failing Check would
// have returned, or nil while the run may continue. Drivers use it
// between phases to avoid launching work that the first interior
// checkpoint would immediately abandon.
func (c *Control) Err() error {
	if c == nil {
		return nil
	}
	if c.done != nil {
		select {
		case <-c.done:
			return c.ctx.Err()
		default:
		}
	}
	if c.spent.Load() {
		return ErrBudgetExceeded
	}
	return nil
}

// IsStop reports whether err is a cooperative-stop sentinel — a
// cancellation, deadline, or budget exhaustion (possibly wrapped). An
// algorithm returning (result, err) with IsStop(err) guarantees the
// result is a valid, balanced best-so-far bisection; any other non-nil
// error means the result is unusable.
func IsStop(err error) bool {
	return err != nil && (errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}
