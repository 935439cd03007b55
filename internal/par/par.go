// Package par provides the fixed-degree fork-join worker pool behind
// the two within-run parallel kernels: the sharded contraction's row
// counting/writing and the KL refiner's two-sided gain-bucket fill.
//
// The design constraints come from the repository's workspace contract:
//
//   - Zero steady-state allocations. Workers are spawned once per pool
//     and parked on a channel between runs; Run hands them work through
//     pre-existing fields and an atomic shard counter, so a warm
//     Run(shards, fn) performs no heap allocation. (The fn value itself
//     must be pre-bound by the caller — workspaces store their shard
//     closures in struct fields — because constructing a capturing
//     closure at the call site would allocate there.)
//   - Determinism. The pool imposes no structure on results: shard
//     functions write to disjoint, shard-indexed state, so the outcome
//     is a pure function of (input, shard count) regardless of how the
//     atomic counter interleaves shards across workers. Every kernel in
//     this repository is additionally designed so its output does not
//     depend on the shard count either.
//   - Panic isolation. A panicking shard does not deadlock the pool:
//     the first panic is captured with its stack, the join completes,
//     and Run re-panics with a *PanicError — the same surfacing
//     contract as core.ParallelBestOf, whose recovery machinery then
//     discards the poisoned workspace (and this pool with it).
//
// A Pool is not safe for concurrent Run calls, and shard functions must
// not call Run on the pool that invoked them; one pool belongs to one
// workspace, mirroring the workspace-per-worker design of
// core.ParallelBestOf.
package par

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// Pool is a reusable fork-join pool of degree-1 parked helper
// goroutines plus the calling goroutine. A nil *Pool is valid and runs
// everything inline, so callers can hold an optional pool without
// nil-checking every use.
type Pool struct {
	degree  int
	helpers int
	start   chan struct{} // one token per helper wakes it for a join
	done    chan struct{} // one token per helper signals its join finished
	closed  bool

	// Per-run state, written by Run before the helpers wake and read
	// by them afterwards (the channel send/receive pair establishes the
	// happens-before edge).
	fn     func(shard int)
	shards int64
	next   atomic.Int64
	fault  atomic.Pointer[PanicError]
}

// PanicError carries the first panic recovered from a shard function,
// with the stack of the panicking goroutine. Run panics with a value of
// this type after the join completes.
type PanicError struct {
	Shard int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: shard %d panicked: %v", e.Shard, e.Value)
}

// New returns a pool that runs shard functions on up to degree
// goroutines (the caller plus degree-1 parked helpers). A degree of 1
// or less returns nil — the inline pool — so New(degree) is safe to
// call with whatever a -threads flag parsed.
func New(degree int) *Pool {
	if degree <= 1 {
		return nil
	}
	p := &Pool{
		degree:  degree,
		helpers: degree - 1,
		start:   make(chan struct{}, degree),
		done:    make(chan struct{}, degree),
	}
	for i := 0; i < p.helpers; i++ {
		go p.helper()
	}
	return p
}

// Degree returns the pool's worker count; a nil pool has degree 1.
func (p *Pool) Degree() int {
	if p == nil {
		return 1
	}
	return p.degree
}

// Run executes fn(0) … fn(shards-1), distributing shards over the pool
// via an atomic counter, and returns when all have finished. Shard
// functions run concurrently and must only touch disjoint or
// shard-indexed state. On a nil pool (or a single shard) everything
// runs inline on the calling goroutine, in shard order.
func (p *Pool) Run(shards int, fn func(shard int)) {
	if shards <= 0 {
		return
	}
	if p == nil || shards == 1 {
		for i := 0; i < shards; i++ {
			fn(i)
		}
		return
	}
	if p.closed {
		panic("par: Run on closed Pool")
	}
	p.fn = fn
	p.shards = int64(shards)
	p.next.Store(0)
	wake := p.helpers
	if wake > shards-1 {
		wake = shards - 1
	}
	for i := 0; i < wake; i++ {
		p.start <- struct{}{}
	}
	p.work()
	for i := 0; i < wake; i++ {
		<-p.done
	}
	p.fn = nil
	if fault := p.fault.Swap(nil); fault != nil {
		panic(fault)
	}
}

// work drains the shard counter, recovering a shard panic into the
// pool's fault slot so the join always completes.
func (p *Pool) work() {
	for {
		i := p.next.Add(1) - 1
		if i >= p.shards {
			return
		}
		p.runShard(int(i))
	}
}

func (p *Pool) runShard(shard int) {
	defer func() {
		if r := recover(); r != nil {
			p.fault.CompareAndSwap(nil, &PanicError{Shard: shard, Value: r, Stack: debug.Stack()})
		}
	}()
	p.fn(shard)
}

func (p *Pool) helper() {
	for range p.start {
		p.work()
		p.done <- struct{}{}
	}
}

// Close releases the helper goroutines. The pool must not be used
// afterwards. Close on a nil pool is a no-op; double Close is safe.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	close(p.start)
}
