package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// workerLoop is one worker of the fixed pool. Each worker owns a lazily
// built set of workspace-attached bisectors (core.WithWorkspace — the
// same zero-alloc machinery ParallelBestOf gives its pool workers), so
// after warm-up a worker serves jobs without allocating per start. A
// panicking job poisons only its worker's workspace set, which is
// discarded and rebuilt, mirroring ParallelBestOf's poisoned-start
// recovery.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	bisectors := make(map[string]core.Bisector)
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			if !s.runJob(j, bisectors) {
				bisectors = make(map[string]core.Bisector)
			}
		}
	}
}

// runJob executes one job; ok=false means the workspace set may be
// poisoned (the job panicked) and must be discarded.
func (s *Server) runJob(j *job, bisectors map[string]core.Bisector) (ok bool) {
	// Claim. A job cancelled while queued is already terminal: skip.
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return true
	}
	runCtx, cancel := context.WithCancel(s.ctx)
	if j.spec.TimeoutMS > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
	}
	defer cancel()
	j.state = StateRunning
	j.startedMS = time.Now().UnixMilli()
	j.cancelRun = cancel
	g := j.g
	j.mu.Unlock()
	// The claim is not persisted: recovery re-runs a queued record just
	// as it would a running one.

	ok = true
	defer func() {
		if v := recover(); v != nil {
			ok = false
			j.fail(fmt.Sprintf("panic: %v", v), time.Now().UnixMilli())
			s.persistJob(j)
		}
	}()

	base, ok2 := bisectors[j.spec.Algorithm]
	if !ok2 {
		b, err := core.New(j.spec.Algorithm)
		if err != nil { // validated at submission; only recovery of foreign records gets here
			j.fail(err.Error(), time.Now().UnixMilli())
			s.persistJob(j)
			return true
		}
		base = core.WithWorkspace(b)
		bisectors[j.spec.Algorithm] = base
	}

	// The multi-start loop below is core.BestOf.Bisect with the
	// workspace owned by the worker instead of the run: one sequential
	// random stream, best cut kept, control polled (without consuming
	// budget) between starts. Results and event streams are therefore
	// stream-identical to BestOf{Inner, Starts} on the same seed — the
	// reproducibility contract of docs/SERVICE.md, pinned by the tests.
	ctl := runctl.New(runCtx, j.spec.Budget)
	r := rng.NewFib(j.spec.Seed)
	t0 := time.Now()
	var best *partition.Bisection
	var stopErr error
	for i := 0; i < j.spec.Starts; i++ {
		if i > 0 {
			if stopErr = ctl.Err(); stopErr != nil {
				break
			}
		}
		inner := core.WithObserver(base, trace.WithStart(j, i))
		inner = core.WithControl(inner, ctl)
		cand, err := inner.Bisect(g, r)
		if err != nil {
			if !runctl.IsStop(err) || cand == nil {
				j.fail(err.Error(), time.Now().UnixMilli())
				s.persistJob(j)
				return true
			}
			stopErr = err
		}
		if cand != nil && (best == nil || cand.Cut() < best.Cut()) {
			best = cand
		}
		if stopErr != nil {
			break
		}
	}
	seconds := time.Since(t0).Seconds()
	if best == nil {
		j.fail("no result produced", time.Now().UnixMilli())
		s.persistJob(j)
		return true
	}

	stopped := ""
	switch {
	case stopErr == nil:
	case errors.Is(stopErr, runctl.ErrBudgetExceeded):
		stopped = "budget"
	case errors.Is(stopErr, context.DeadlineExceeded):
		stopped = "deadline"
	case errors.Is(stopErr, context.Canceled):
		j.mu.Lock()
		user := j.userCancel
		j.mu.Unlock()
		if !user {
			// Daemon shutdown, not a client cancel: hand the job back to
			// the queue so a restart re-runs it to a deterministic result
			// instead of freezing a schedule-dependent best-so-far.
			j.requeue()
			s.persistJob(j)
			return true
		}
		stopped = "cancelled"
	default:
		stopped = "stopped"
	}

	// Final run_done exactly as BestOf emits it: the kept cut under the
	// composed driver name.
	j.Observe(trace.Event{
		Type:  trace.TypeRunDone,
		Algo:  fmt.Sprintf("%s×%d", j.spec.Algorithm, j.spec.Starts),
		Index: j.spec.Starts,
		Cut:   best.Cut(), BestCut: best.Cut(), Imbalance: best.Imbalance(),
	})
	j.complete(Result{
		Cut: best.Cut(), Imbalance: best.Imbalance(),
		Seconds: seconds, Stopped: stopped,
	}, best.Sides(), time.Now().UnixMilli())
	s.persistJob(j)
	return true
}
