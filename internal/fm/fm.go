// Package fm implements the Fiduccia–Mattheyses bisection refinement —
// the classical successor to Kernighan–Lin that moves single vertices
// under a balance constraint instead of exchanging pairs. It serves as an
// additional baseline and as the refinement engine for the multilevel
// extension.
//
// One pass: all vertices start unlocked with their gains in two bucket
// structures (one per side). Repeatedly, the highest-gain vertex whose
// move keeps the imbalance within tolerance is moved and locked, and its
// neighbors' gains are updated. The best prefix of the move sequence is
// kept; the rest is rolled back. Passes repeat until no improvement.
//
// As in package kl, all pass state (the bucket structures and the move
// log) lives in a reusable Refiner workspace so steady-state passes
// allocate nothing, and the per-graph bounds the pass needs (maximum
// weighted degree, maximum vertex weight) are served from the graph's
// Build-time caches instead of being recomputed every pass.
package fm

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// Options configures the algorithm.
type Options struct {
	// MaxPasses caps the number of passes; 0 means run until a pass stops
	// improving (with a hard safety cap).
	MaxPasses int
	// MaxImbalance is the largest |w(V0) − w(V1)| a prefix is allowed to
	// end at; 0 means the maximum vertex weight of the graph (the
	// tightest tolerance under which FM can still move anything).
	MaxImbalance int64
	// Workspace, when non-nil, supplies the reusable pass state (gain
	// buckets, move log) so repeated runs allocate nothing. A nil
	// Workspace makes Run/Refine/Pass allocate a private one. Workspaces
	// are not safe for concurrent use; give each goroutine its own.
	Workspace *Refiner
	// Observer, when non-nil, receives move_batch, pass_done, and
	// run_done trace events (see docs/OBSERVABILITY.md). Attaching one
	// never changes the resulting bisection; nil costs nothing.
	Observer trace.Observer
	// Control, when non-nil, is polled once before every pass. When it
	// stops, Refine returns the bisection as the last completed pass left
	// it — valid, with imbalance no worse than it started — together with
	// the stop sentinel (see internal/runctl and docs/ROBUSTNESS.md). A
	// run under checkpoint budget k is identical to an uncancelled run
	// with MaxPasses = k; nil costs nothing.
	Control *runctl.Control
	// ParallelDegree, when > 1, shards the pass over a worker pool of
	// that degree for graphs with at least ParallelMinVertices vertices:
	// the two gain-bucket structures are filled concurrently (one worker
	// per side), each committed move's neighbor gain updates and bucket
	// repositions are sharded when the moved vertex's degree reaches
	// ParallelMinDegree, and on weighted graphs the move selection scans
	// per-shard bucket segments with a deterministic reduce. Results are
	// identical at any degree — every kernel reproduces the serial
	// decision sequence bit-exactly (see docs/PERFORMANCE.md). The pool
	// attaches to the Workspace; reuse one (and Close it) to amortize.
	ParallelDegree int
}

// ParallelMinVertices is the graph size below which the pass stays
// serial even when Options.ParallelDegree asks for workers. A variable
// only so tests can lower it.
var ParallelMinVertices = 1 << 15

// ParallelMinDegree is the moved-vertex degree below which a committed
// move's neighbor updates stay serial even on a parallel pass: the
// fork-join barrier costs on the order of a microsecond, so sharding
// only pays once a move touches enough neighbors. A variable only so
// tests can lower it.
var ParallelMinDegree = 64

const safetyPassCap = 1000

// Stats reports what a Run or Refine did.
type Stats struct {
	Passes     int
	Moves      int // moves kept across all passes
	InitialCut int64
	FinalCut   int64
}

// Refiner is the reusable workspace for FM passes: the two gain-bucket
// structures and the move log. A zero Refiner is ready to use; it sizes
// itself to each graph it sees and is reused across passes, starts, and
// multilevel levels without further allocation. Refiners carry no
// algorithm state between calls — using one never changes results — but
// they are not safe for concurrent use.
type Refiner struct {
	buckets [2]partition.GainBuckets
	moves   []int32
	// Worker pool for the parallel pass kernels (Options.ParallelDegree),
	// created lazily, released by Close; pb carries the bisection to the
	// pre-bound shard closures.
	pool   *par.Pool
	initFn func(int)
	pb     *partition.Bisection
	// mover shards the per-move neighbor gain updates and bucket
	// repositions (see partition.ShardedMover).
	mover partition.ShardedMover
	// Parallel move-proposal state: per-(side, shard) best admissible
	// candidates and the pre-bound segment-scan closure.
	propV      []int32
	propG      []int64
	propFn     func(int)
	propShards int
	propD      int64 // side-weight difference during the current selection
	propTol    int64
}

// Close releases the pool created for parallel bucket filling (if any).
// The Refiner remains usable afterwards.
func (w *Refiner) Close() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}

// initShard fills side s's gain buckets in vertex order — exactly the
// serial insertion order restricted to one side, so the LIFO bucket
// layout (and every downstream decision) is identical.
func (w *Refiner) initShard(s int) {
	side, gain := w.pb.SidesRef(), w.pb.GainsRef()
	bk := &w.buckets[s]
	us := uint8(s)
	for v, sv := range side {
		if sv == us {
			bk.Add(int32(v), gain[v])
		}
	}
}

// NewRefiner returns an empty workspace. Equivalent to new(Refiner);
// provided for call-site clarity.
func NewRefiner() *Refiner { return new(Refiner) }

// ensure sizes the workspace for g. Once the workspace has seen a graph
// at least as large (in vertices and gain bound), this performs no
// allocation.
func (w *Refiner) ensure(g *graph.Graph) error {
	n := g.N()
	maxGain := g.MaxWeightedDegree()
	for s := range w.buckets {
		if err := w.buckets[s].Reset(n, maxGain); err != nil {
			return err
		}
	}
	if cap(w.moves) < n {
		w.moves = make([]int32, 0, n)
	}
	return nil
}

// workspace returns opts.Workspace or a fresh private one.
func workspace(opts Options) *Refiner {
	if opts.Workspace != nil {
		return opts.Workspace
	}
	return new(Refiner)
}

// Refine runs FM passes on b in place. The final bisection's imbalance is
// at most max(opts.MaxImbalance, the imbalance it started with).
func Refine(b *partition.Bisection, opts Options) (Stats, error) {
	return workspace(opts).Refine(b, opts)
}

// Refine is Refine using this workspace (opts.Workspace is ignored).
func (w *Refiner) Refine(b *partition.Bisection, opts Options) (Stats, error) {
	st := Stats{InitialCut: b.Cut(), FinalCut: b.Cut()}
	limit := opts.MaxPasses
	if limit <= 0 {
		limit = safetyPassCap
	}
	obs := opts.Observer
	var runStart time.Time
	if obs != nil {
		runStart = time.Now()
	}
	var stopErr error
	for p := 0; p < limit; p++ {
		if stopErr = opts.Control.Check(); stopErr != nil {
			break
		}
		var passStart time.Time
		if obs != nil {
			passStart = time.Now()
		}
		improved, moves, err := w.Pass(b, opts)
		st.Passes++
		st.Moves += moves
		if err != nil {
			return st, err
		}
		st.FinalCut = b.Cut()
		if obs != nil {
			obs.Observe(trace.Event{
				Type: trace.TypePassDone, Algo: "fm", Index: p,
				Cut: st.FinalCut, BestCut: st.FinalCut, Imbalance: b.Imbalance(),
				Gain: improved, Moves: moves,
				ElapsedNS: time.Since(passStart).Nanoseconds(),
			})
		}
		if moves == 0 {
			// A pass keeps moves only when it strictly improves the cut
			// or strictly repairs balance, so an empty pass is a fixpoint.
			break
		}
	}
	if obs != nil {
		obs.Observe(trace.Event{
			Type: trace.TypeRunDone, Algo: "fm", Index: st.Passes,
			Cut: st.FinalCut, BestCut: st.FinalCut, Imbalance: b.Imbalance(),
			Gain: st.InitialCut - st.FinalCut, Moves: st.Moves,
			ElapsedNS: time.Since(runStart).Nanoseconds(),
		})
	}
	return st, stopErr
}

// Run bisects g from a fresh random balanced bisection.
func Run(g *graph.Graph, opts Options, r *rng.Rand) (*partition.Bisection, Stats, error) {
	b := partition.NewRandom(g, r)
	st, err := Refine(b, opts)
	return b, st, err
}

// Pass executes one FM pass. It returns the cut improvement (≥ 0) and the
// number of moves kept.
//
// During the pass, a move is admissible if the resulting imbalance stays
// within the classical FM balance window (2·maxVertexWeight, or the
// configured tolerance if larger) or strictly shrinks the imbalance. The
// kept prefix is chosen lexicographically: first reach the final
// tolerance, then maximize the cumulative gain — so a balanced input
// stays balanced, and an unbalanced input is repaired before the cut is
// optimized.
func Pass(b *partition.Bisection, opts Options) (improvement int64, kept int, err error) {
	return workspace(opts).Pass(b, opts)
}

// Pass is Pass using this workspace (opts.Workspace is ignored).
func (w *Refiner) Pass(b *partition.Bisection, opts Options) (improvement int64, kept int, err error) {
	g := b.Graph()
	n := g.N()
	if n == 0 {
		return 0, 0, nil
	}
	maxVW := int64(g.MaxVertexWeight())
	finalTol := opts.MaxImbalance
	if finalTol <= 0 {
		finalTol = maxVW
	}
	moveTol := 2 * maxVW
	if finalTol > moveTol {
		moveTol = finalTol
	}
	if start := b.Imbalance(); start > moveTol {
		moveTol = start
	}

	if err := w.ensure(g); err != nil {
		return 0, 0, err
	}
	buckets := [2]*partition.GainBuckets{&w.buckets[0], &w.buckets[1]}
	useParallel := opts.ParallelDegree > 1 && n >= ParallelMinVertices
	if useParallel {
		if w.pool == nil || w.pool.Degree() < opts.ParallelDegree {
			w.pool.Close()
			w.pool = par.New(opts.ParallelDegree)
			w.initFn = w.initShard
		}
		w.pb = b
		w.pool.Run(2, w.initFn)
		w.pb = nil
	} else {
		for v := int32(0); int(v) < n; v++ {
			buckets[b.Side(v)].Add(v, b.Gain(v))
		}
	}
	if useParallel {
		w.mover.Bind(w.pool, b, buckets[0], buckets[1])
	}
	// The sharded proposal only differs from the serial scan on weighted
	// graphs; unit-weight selection is already O(1) per side.
	useProp := useParallel && g.MaxVertexWeight() > 1
	if useProp {
		shards := w.pool.Degree()
		if cap(w.propV) < 2*shards {
			w.propV = make([]int32, 2*shards)
			w.propG = make([]int64, 2*shards)
		}
		w.propV = w.propV[:2*shards]
		w.propG = w.propG[:2*shards]
		w.propShards = shards
		if w.propFn == nil {
			w.propFn = w.propShard
		}
	}

	moves := w.moves[:0]
	var cum, bestCum int64
	bestK := 0
	bestImb := b.Imbalance()
	// Intra-pass tracing state; untouched when no observer is attached.
	obs := opts.Observer
	var startCut, batchMaxGain int64
	batchFill, batchIdx := 0, 0
	if obs != nil {
		startCut = b.Cut()
	}
	for step := 0; step < n; step++ {
		var v int32
		if useProp {
			v = w.selectMoveParallel(b, moveTol)
		} else {
			v = selectMove(b, buckets, moveTol)
		}
		if v < 0 {
			break
		}
		gain := b.Gain(v)
		buckets[b.Side(v)].Remove(v)
		if useParallel && len(g.Neighbors(v)) >= ParallelMinDegree {
			w.mover.Move(v)
		} else {
			b.Move(v)
			for _, e := range g.Neighbors(v) {
				buckets[b.Side(e.To)].UpdateIfPresent(e.To, b.Gain(e.To))
			}
		}
		moves = append(moves, v)
		cum += gain
		imb := b.Imbalance()
		better := false
		switch {
		case imb <= finalTol && bestImb > finalTol:
			better = true
		case imb <= finalTol && bestImb <= finalTol:
			better = cum > bestCum
		case imb > finalTol && bestImb > finalTol:
			better = imb < bestImb || (imb == bestImb && cum > bestCum)
		}
		if better {
			bestCum = cum
			bestImb = imb
			bestK = len(moves)
		}
		if obs != nil {
			if batchFill == 0 || gain > batchMaxGain {
				batchMaxGain = gain
			}
			batchFill++
			if batchFill == trace.MoveBatchSize {
				emitMoveBatch(obs, b, batchIdx, len(moves), startCut, cum, bestCum, batchMaxGain)
				batchFill = 0
				batchIdx++
			}
		}
	}
	if obs != nil && batchFill > 0 {
		emitMoveBatch(obs, b, batchIdx, len(moves), startCut, cum, bestCum, batchMaxGain)
	}
	for i := len(moves) - 1; i >= bestK; i-- {
		if useParallel && len(g.Neighbors(moves[i])) >= ParallelMinDegree {
			w.mover.MoveNoBuckets(moves[i])
		} else {
			b.Move(moves[i])
		}
	}
	if useParallel {
		w.mover.Unbind()
	}
	w.moves = moves[:0] // keep the grown capacity for the next pass
	if bestCum < 0 {
		// The kept prefix traded cut for balance; report zero improvement
		// so callers' accounting (improvement = cut decrease) stays
		// non-negative in the balanced steady state.
		return 0, bestK, nil
	}
	return bestCum, bestK, nil
}

// emitMoveBatch reports an intra-pass progress sample: the cut of the
// tentative state, the cut the best prefix so far would yield, and the
// batch's largest single move gain.
func emitMoveBatch(obs trace.Observer, b *partition.Bisection, batchIdx, moves int, startCut, cum, bestCum, maxGain int64) {
	obs.Observe(trace.Event{
		Type: trace.TypeMoveBatch, Algo: "fm", Index: batchIdx,
		Cut: b.Cut(), BestCut: startCut - bestCum, Imbalance: b.Imbalance(),
		Gain: cum, MaxGain: maxGain, Moves: moves,
	})
}

// selectMove picks the best-gain unlocked vertex whose move would not
// push the imbalance beyond... any bound that could never recover: FM
// classically requires each individual move to respect the balance
// criterion. A move of weight w from side s changes the imbalance d
// (signed, w0−w1) to d∓2w; it is admissible if the result stays within
// tolerance OR strictly shrinks |d| (so repair moves are always allowed).
func selectMove(b *partition.Bisection, buckets [2]*partition.GainBuckets, tol int64) int32 {
	d := b.SideWeight(0) - b.SideWeight(1)
	g := b.Graph()
	bestV := int32(-1)
	var bestG int64
	// Unit vertex weights (weights are validated positive, so max==1 means
	// all are exactly 1) make admissibility a per-side constant: every
	// vertex on side s shifts d by the same ∓2. Deciding the side once
	// replaces walking every vertex of a locked-out side — without this,
	// each move of a pass scans the whole losing side whenever repair
	// moves must come from the other one, turning the pass quadratic
	// (hours at 10^6 vertices). Selection is unchanged: on an admissible
	// side every vertex is admissible, so the cursor's first entry is the
	// side's best, exactly what the general scan below would return.
	if g.MaxVertexWeight() == 1 {
		for s := 0; s < 2; s++ {
			nd := d - 2
			if s == 1 {
				nd = d + 2
			}
			abs, nabs := d, nd
			if abs < 0 {
				abs = -abs
			}
			if nabs < 0 {
				nabs = -nabs
			}
			if nabs > tol && nabs >= abs {
				continue // side s is locked out wholesale this move
			}
			if c := buckets[s].Cursor(); c.Valid() && (bestV < 0 || c.Gain() > bestG) {
				bestV, bestG = c.V(), c.Gain()
			}
		}
		return bestV
	}
	for s := 0; s < 2; s++ {
		for c := buckets[s].Cursor(); c.Valid(); c.Next() {
			v, gain := c.V(), c.Gain()
			if bestV >= 0 && gain <= bestG {
				break // buckets are sorted; nothing better remains on this side
			}
			w := int64(g.VertexWeight(v))
			nd := d
			if b.Side(v) == 0 {
				nd -= 2 * w
			} else {
				nd += 2 * w
			}
			abs, nabs := d, nd
			if abs < 0 {
				abs = -abs
			}
			if nabs < 0 {
				nabs = -nabs
			}
			if nabs <= tol || nabs < abs {
				bestV, bestG = v, gain
				break // best admissible on this side found
			}
		}
	}
	return bestV
}

// selectMoveParallel is selectMove's weighted path with the descending
// admissibility scan sharded: the bucket index space of each side is
// split into contiguous per-shard segments, every shard finds its
// segment's best admissible vertex (same descending LIFO walk, same
// admissibility test as the serial scan), and a serial reduce picks the
// winner.
//
// The reduce reproduces the serial selection exactly, independent of
// the shard count: segments partition the gain axis, so a side's best
// admissible vertex is the candidate of the highest segment that found
// one — the same vertex the serial descending scan stops at, because
// admissibility at a fixed pass state depends only on the vertex (side,
// weight), never on scan order, and each bucket's LIFO chain lies
// entirely inside one segment. Across sides the reduce keeps side 0 on
// gain ties, matching the serial side order (side 1 must strictly beat
// side 0 to win).
func (w *Refiner) selectMoveParallel(b *partition.Bisection, tol int64) int32 {
	w.pb = b
	w.propD = b.SideWeight(0) - b.SideWeight(1)
	w.propTol = tol
	w.pool.Run(w.propShards, w.propFn)
	w.pb = nil
	bestV := int32(-1)
	var bestG int64
	for side := 0; side < 2; side++ {
		for s := w.propShards - 1; s >= 0; s-- {
			v := w.propV[side*w.propShards+s]
			if v < 0 {
				continue // segment had no admissible vertex; try lower gains
			}
			if g := w.propG[side*w.propShards+s]; bestV < 0 || g > bestG {
				bestV, bestG = v, g
			}
			break // lower segments hold strictly lower gains
		}
	}
	return bestV
}

// propShard scans shard s's bucket-index segment of both sides for the
// segment's best admissible move, mirroring the serial weighted scan's
// admissibility rule: the move must keep |w0 − w1| within tolerance or
// strictly shrink it.
func (w *Refiner) propShard(s int) {
	b := w.pb
	g := b.Graph()
	d, tol, shards := w.propD, w.propTol, w.propShards
	abs := d
	if abs < 0 {
		abs = -abs
	}
	for side := 0; side < 2; side++ {
		gb := &w.buckets[side]
		span := gb.Span()
		lo, hi := s*span/shards, (s+1)*span/shards
		w.propV[side*shards+s] = -1
		for c := gb.RangeCursor(lo, hi); c.Valid(); c.Next() {
			v := c.V()
			nd := d
			if side == 0 {
				nd -= 2 * int64(g.VertexWeight(v))
			} else {
				nd += 2 * int64(g.VertexWeight(v))
			}
			nabs := nd
			if nabs < 0 {
				nabs = -nabs
			}
			if nabs <= tol || nabs < abs {
				w.propV[side*shards+s] = v
				w.propG[side*shards+s] = c.Gain()
				break // best admissible in this segment found
			}
		}
	}
}

// String implements a compact summary for logs.
func (s Stats) String() string {
	return fmt.Sprintf("fm{passes=%d moves=%d cut %d→%d}", s.Passes, s.Moves, s.InitialCut, s.FinalCut)
}
