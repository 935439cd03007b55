package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/runctl"
)

// workerLoop is one worker of the fixed pool. Each worker owns a lazily
// built set of workspace-attached bisectors (core.WithWorkspace), so
// after warm-up a worker serves jobs without allocating per start. The
// recover in runJob is the daemon's one panic boundary: a panicking job
// fails with "panic: …" instead of taking the process down, and since
// it may have left its worker's workspaces corrupted, the worker
// discards the whole set and rebuilds it.
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

	// One core.BestOf run over the worker's workspace bisector, so a
	// job's result and event stream are those of BestOf{Inner, Starts}
	// on the same seed: the reproducibility contract of docs/SERVICE.md.
	runner := core.WithControl(core.BestOf{Inner: base, Starts: j.spec.Starts, Observer: j}, runctl.New(runCtx, j.spec.Budget))
	t0 := time.Now()
	best, err := runner.Bisect(g, rng.NewFib(j.spec.Seed))
	seconds := time.Since(t0).Seconds()

	stopped := ""
	switch {
	case err == nil:
	case !runctl.IsStop(err) || best == nil:
		j.fail(err.Error(), time.Now().UnixMilli())
		s.persistJob(j)
		return true
	case errors.Is(err, runctl.ErrBudgetExceeded):
		stopped = "budget"
	case errors.Is(err, context.DeadlineExceeded):
		stopped = "deadline"
	case errors.Is(err, context.Canceled):
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

	j.complete(Result{
		Cut: best.Cut(), Imbalance: best.Imbalance(),
		Seconds: seconds, Stopped: stopped,
	}, best.Sides(), time.Now().UnixMilli())
	s.persistJob(j)
	return true
}
