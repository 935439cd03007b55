package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// ParallelBestOf runs the inner bisector from Starts independent random
// streams concurrently and keeps the best cut. Unlike BestOf (which
// consumes one stream sequentially), each start gets its own stream split
// off deterministically up front, so the result is a deterministic
// function of the seed regardless of scheduling; ties are broken toward
// the lowest start index.
//
// Starts are isolated from each other: a start that panics is captured
// as a PanicError (with its stack) instead of crashing the process, and
// a start that fails never discards the surviving starts' best cut — the
// driver returns the best result alongside a PoolError describing every
// failure. Only when no start produces a usable bisection is the result
// nil.
type ParallelBestOf struct {
	Inner Bisector
	// Starts is the number of independent runs (default 2).
	Starts int
	// Workers caps concurrency (default GOMAXPROCS).
	Workers int
	// Observer, when non-nil, receives the inner runs' events and a
	// final run_done with the kept cut. Each start records into its own
	// buffer while running; the buffers are replayed in start order
	// after all starts join, so the delivered stream is single-goroutine
	// and identical for identical seeds no matter how the starts were
	// scheduled.
	Observer trace.Observer
	// Control, when non-nil, is shared by all concurrent starts: each
	// polls it through the inner bisector's checkpoints (a budget is
	// drawn from jointly), interrupted starts return their best-so-far,
	// and the driver keeps the best surviving candidate together with
	// the stop sentinel. WithControl sets it.
	Control *runctl.Control
}

// PanicError is a panic captured inside one start of a parallel run: the
// start index, the recovered value, and the goroutine stack at the point
// of the panic. The pool keeps draining when a start panics; the capture
// surfaces inside the run's PoolError.
type PanicError struct {
	Start int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: start %d panicked: %v\n%s", e.Start, e.Value, e.Stack)
}

// StartError records one failed start inside a PoolError.
type StartError struct {
	Start int
	Err   error
}

// PoolError aggregates the failures of a multi-start parallel run. When
// it accompanies a non-nil bisection, the surviving starts' best cut is
// still usable and the error exists to report the losses; when every
// start failed, it is the run's only outcome.
type PoolError struct {
	// Starts is the total number of starts attempted.
	Starts int
	// Failed lists the starts that produced neither a result nor a clean
	// stop, in start order.
	Failed []StartError
}

// Error implements error.
func (e *PoolError) Error() string {
	return fmt.Sprintf("core: %d of %d starts failed; first: %v", len(e.Failed), e.Starts, e.Failed[0].Err)
}

// Unwrap returns the first failed start's error so errors.Is/As see
// through the aggregation.
func (e *PoolError) Unwrap() error { return e.Failed[0].Err }

// Name implements Bisector.
func (p ParallelBestOf) Name() string { return fmt.Sprintf("%s∥%d", p.Inner.Name(), p.Starts) }

// WithObserver implements Observable.
func (p ParallelBestOf) WithObserver(obs trace.Observer) Bisector {
	p.Observer = obs
	return p
}

// Bisect implements Bisector.
func (p ParallelBestOf) Bisect(g *graph.Graph, r *rng.Rand) (*partition.Bisection, error) {
	if p.Inner == nil {
		return nil, fmt.Errorf("core: ParallelBestOf with nil inner bisector")
	}
	starts := p.Starts
	if starts <= 0 {
		starts = 2
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > starts {
		workers = starts
	}
	// Deterministic stream fan-out before any concurrency.
	streams := make([]*rng.Rand, starts)
	for i := range streams {
		streams[i] = r.Split()
	}
	// Per-start event buffers: goroutines never share an observer.
	var recs []*trace.Recorder
	if p.Observer != nil {
		recs = make([]*trace.Recorder, starts)
		for i := range recs {
			recs[i] = trace.NewRecorder(0)
		}
	}

	results := make([]*partition.Bisection, starts)
	errs := make([]error, starts)
	// A fixed pool of workers pulls start indices from a channel; each
	// worker owns one reusable workspace for its whole lifetime, so a
	// 100-start run touches `workers` workspaces, not 100. Which worker
	// runs which start cannot affect results: the random streams were
	// split deterministically above, every start records into its own
	// buffer, and workspaces carry no state between runs.
	//
	// Each start runs under its own recover, so a panicking inner
	// bisector poisons only its slot: the worker records a PanicError,
	// discards its (possibly corrupted) workspace, and keeps pulling
	// indices — the pool always drains and wg.Wait always returns.
	runOne := func(inner Bisector, i int) (panicked bool) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = &PanicError{Start: i, Value: v, Stack: debug.Stack()}
				results[i] = nil
				panicked = true
			}
		}()
		if recs != nil {
			inner = WithObserver(inner, recs[i])
		}
		results[i], errs[i] = inner.Bisect(g, streams[i])
		return false
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := WithWorkspace(p.Inner)
			for i := range idx {
				if runOne(base, i) {
					base = WithWorkspace(p.Inner)
				}
			}
		}()
	}
	for i := 0; i < starts; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var best *partition.Bisection
	var stopErr error
	var failed []StartError
	for i := 0; i < starts; i++ {
		cand := results[i]
		switch err := errs[i]; {
		case err == nil:
		case runctl.IsStop(err) && cand != nil:
			// Interrupted, not failed: the start's best-so-far competes.
			if stopErr == nil {
				stopErr = err
			}
		default:
			failed = append(failed, StartError{Start: i, Err: err})
			cand = nil
		}
		if cand != nil && (best == nil || cand.Cut() < best.Cut()) {
			best = cand
		}
	}
	if p.Observer != nil {
		trace.MergeStarts(p.Observer, recs)
		if best != nil {
			p.Observer.Observe(trace.Event{
				Type: trace.TypeRunDone, Algo: p.Name(), Index: starts,
				Cut: best.Cut(), BestCut: best.Cut(), Imbalance: best.Imbalance(),
			})
		}
	}
	if len(failed) > 0 {
		return best, &PoolError{Starts: starts, Failed: failed}
	}
	return best, stopErr
}
