package anneal

import (
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The quantized acceptance table. A Metropolis trial accepts an uphill
// move when u < exp(−x) for u = Float64() and x = Δ/T > 0. Computing
// math.Exp per trial is the single most expensive instruction sequence
// in the annealing inner loop, so the hot path brackets exp(−x) with a
// precomputed table instead and only falls back to the exact value when
// the bracket cannot decide.
//
// The table holds exp at the bucket edges: expEdge[i] = exp(−i·δ) for
// δ = expTableMaxX / expTableSize. Because exp(−x) is monotone
// decreasing, for x in bucket i (i·δ ≤ x < (i+1)·δ):
//
//	expEdge[i+1] ≤ exp(−x) ≤ expEdge[i]
//
// so u < expEdge[i+1] proves acceptance, u ≥ expEdge[i] proves
// rejection, and only a u inside the bracket — a gap of width
// expEdge[i]·(1 − e^(−δ)) ≤ 1 − e^(−δ) < δ ≈ 3.1% — needs math.Exp.
// The decision is therefore *exactly* the naive u < exp(−x) for every
// input, which is what keeps cuts and traces bit-identical to the
// pre-table implementation (TestExpTableBracketsExp pins the bound and
// the agreement).
//
// δ is exactly 2⁻⁵, so x·expTableInvStep is a power-of-two scaling —
// exact in floating point — and the computed bucket index is always the
// true one: the bracket never mis-indexes at a bucket edge.
//
// Sizing: the table is probed at an effectively random index every
// uphill trial, so it must stay resident in L1 next to the trial loop's
// side/gain/weight arrays — 1024 entries (8KB) do; a 4096-entry version
// measured slower from cache misses than the math.Exp it was replacing.
// The wider δ only widens the undecided sliver (≤ 1 − e^(−δ) ≈ 3.1% of
// uphill trials take the exact fallback), it never changes a decision.
const (
	expTableSize    = 1024
	expTableMaxX    = 32.0
	expTableInvStep = expTableSize / expTableMaxX // = 32, exactly
)

var expEdge [expTableSize + 1]float64

// expEdgeScaled[i] = expEdge[i]·2⁵³. The trial loop's u is
// float64(word>>11)/2⁵³, where both the conversion (≤53 significant
// bits) and the power-of-two division are exact, so
//
//	u < expEdge[i]  ⟺  float64(word>>11) < expEdge[i]·2⁵³
//
// with the scaling itself exact (an exponent shift; expEdge values lie
// in [e⁻³², 1], far from overflow and subnormals). Probing against the
// scaled edges lets the hot path defer u's division until a trial
// actually reaches the exact fallback.
var expEdgeScaled [expTableSize + 1]float64

func init() {
	for i := range expEdge {
		expEdge[i] = math.Exp(-float64(i) / expTableInvStep)
		expEdgeScaled[i] = expEdge[i] * (1 << 53)
	}
}

// expProbe results: the bracket proved the decision, or u landed in the
// undecided sliver (or x was beyond the table) and the caller must fall
// back to the exact test.
const (
	probeReject    int8 = 0
	probeAccept    int8 = 1
	probeUndecided int8 = -1
)

// expProbe decides u < exp(−x) from the bracket table alone when it
// can. It contains no calls — one scaled conversion, two loads, two
// compares — so it inlines into the annealing trial loop; keeping the
// exact fallback at the call site is what fits it in the budget. The
// `& (expTableSize − 1)` is a numeric no-op — x < maxX already implies
// i ≤ expTableSize−1 — stated so the compiler can drop both bounds
// checks.
func expProbe(u, x float64) int8 {
	// u·2⁵³ is exact (power-of-two scaling, u < 1 so no overflow), so
	// delegating to the scaled probe preserves every decision.
	return expProbeScaled(u*(1<<53), x)
}

// expTailScaled bounds the tail: for any x ≥ expTableMaxX,
// exp(−x) ≤ e⁻³² < 2e⁻³² = expTailScaled/2⁵³ — the factor of two
// swallows math.Exp's sub-ulp rounding with six orders of magnitude to
// spare — so u ≥ expTailScaled/2⁵³ proves u < exp(−x) false no matter
// which exact value the fallback would compute. Cold, frozen-phase
// temperatures put most uphill trials in this tail (x = Δ/T grows as T
// shrinks); without the tail test every one of them would pay the
// math.Exp fallback just to reject a u that is nowhere near e⁻³².
var expTailScaled = 2 * math.Exp(-expTableMaxX) * (1 << 53)

// expProbeScaled is expProbe with u pre-scaled by 2⁵³ (fw = u·2⁵³ —
// in the trial loop, the raw 53-bit draw before its division into
// [0,1)). Comparing against expEdgeScaled spares the hot path that
// division; see the expEdgeScaled comment for the exactness argument.
func expProbeScaled(fw, x float64) int8 {
	if x < expTableMaxX {
		i := int(x*expTableInvStep) & (expTableSize - 1)
		if fw < expEdgeScaled[i+1] {
			return probeAccept
		}
		if fw >= expEdgeScaled[i] {
			return probeReject
		}
	} else if fw >= expTailScaled {
		// Beyond the table (including x = +Inf from an underflowed
		// temperature): reject unless u is so small the exact test
		// must arbitrate (probability ≈ 2e-14·2⁵³/2⁵³ — effectively
		// never).
		return probeReject
	}
	return probeUndecided
}

// acceptUphill reports u < exp(−x) for x > 0, via the bracket table
// with the exact math.Exp fallback. The trial loop open-codes this
// dispatch so the probe inlines; calibration and the tests use this
// form.
func acceptUphill(u, x float64) bool {
	switch expProbe(u, x) {
	case probeAccept:
		return true
	case probeReject:
		return false
	}
	return acceptUphillExact(u, x)
}

// acceptUphillExact is the exact decision u < exp(−x). math.Exp(−Inf)
// is 0, so an underflowed temperature rejects every uphill move, as it
// should. Kept out of line so acceptUphill's fast path stays within the
// inlining budget; this cold path runs for under 1% of uphill trials.
//
//go:noinline
func acceptUphillExact(u, x float64) bool {
	return u < math.Exp(-x)
}

// deltaCost returns the cost change of flipping v, given d =
// float64(sideDiff) and d2 = d·d for the current side-weight difference
// sideDiff = w(V₀) − w(V₁), v's current side, float weight, and gain.
// Callers hoist d and d2 and refresh them — always by converting the
// exact integer sideDiff, never by float accumulation — when a move is
// accepted, so the per-trial conversion and squaring of a value that
// changes only on acceptance are off the hot path. The arithmetic —
// operation by operation, including association — is the delta closure
// this code replaces, so the produced float64 is bit-identical; only
// the closure call, the accessor calls, and the per-call side-weight
// subtraction are gone.
func deltaCost(d, d2 float64, side uint8, wv float64, gain int64, alpha float64) float64 {
	var nd float64
	if side == 0 {
		nd = d - 2*wv
	} else {
		nd = d + 2*wv
	}
	return -float64(gain) + alpha*(nd*nd-d2)
}

// costAt returns the annealing cost cut + α·(w(V₀)−w(V₁))² from the
// hoisted square d2, with the exact arithmetic shape of the cost
// closure it replaces.
func costAt(cut int64, d2 float64, alpha float64) float64 {
	return float64(cut) + alpha*d2
}

// Refiner is the reusable workspace for annealing runs: the cached
// float64 vertex weights the trial loop's delta needs, the undo log of
// accepted moves, and the best-state side buffer the log materializes
// into. A zero Refiner is ready to use; it sizes itself to each graph it
// sees and is reused across runs without further allocation (a warm
// Refiner makes an entire Refine allocation-free — asserted by
// TestRefineSteadyStateZeroAlloc). Refiners carry no algorithm state
// between calls — using one never changes results — but they are not
// safe for concurrent use; give each goroutine its own (see
// core.ParallelBestOf).
type Refiner struct {
	wf        []float64 // float64(VertexWeight(v)), refreshed per run
	wi        []int64   // VertexWeight(v), for incremental side-diff updates
	bestSides []uint8   // best state seen, materialized from the log
	log       []int32   // accepted moves this temperature (undo log)
	words     []uint64  // wordStream prefetch block (graph-independent)
}

// NewRefiner returns an empty workspace. Equivalent to new(Refiner);
// provided for call-site clarity.
func NewRefiner() *Refiner { return new(Refiner) }

// ensure sizes the workspace for g and refreshes the cached vertex
// weights (the same workspace serves different graphs in turn — e.g.
// the coarse and fine levels of a compacted run). Once the workspace
// has seen a graph at least as large, this performs no allocation.
func (w *Refiner) ensure(g *graph.Graph) {
	n := g.N()
	if cap(w.wf) < n {
		w.wf = make([]float64, 0, n)
	}
	w.wf = w.wf[:n]
	if cap(w.wi) < n {
		w.wi = make([]int64, 0, n)
	}
	w.wi = w.wi[:n]
	for v := int32(0); int(v) < n; v++ {
		wv := g.VertexWeight(v)
		w.wi[v] = int64(wv)
		w.wf[v] = float64(wv)
	}
	if cap(w.bestSides) < n {
		w.bestSides = make([]uint8, n)
	}
	w.bestSides = w.bestSides[:n]
	if w.words == nil {
		w.words = make([]uint64, wordStreamBlock)
	}
}

// workspace returns opts.Workspace or a fresh private one.
func workspace(opts Options) *Refiner {
	if opts.Workspace != nil {
		return opts.Workspace
	}
	return new(Refiner)
}

// wordStreamBlock is the prefetch block size: 4KB of words, small
// enough to stay L1-resident next to the trial loop's working set,
// large enough to amortize the per-block Fill dispatch to noise.
const wordStreamBlock = 512

// wordStream hands the annealing loops their random words. For a
// rewindable source (the production lagged-Fibonacci generator) it
// prefetches words a block at a time with Fill — so the hot path reads
// the next word from a local buffer instead of making an interface
// call per draw — and returns the unconsumed tail with Unread when the
// run finishes. Net source consumption is therefore exactly the words
// the run used, in order: callers sharing the source before and after
// the run (BestOf chains, calibration, the golden fixtures) see the
// same stream as scalar draws. Sources without rewind fall back to
// draw-through, one virtual call per word, same results.
type wordStream struct {
	buf []uint64     // prefetched block; nil in draw-through mode
	pos int          // next unconsumed index; len(buf) when drained
	rw  rng.Rewinder // non-nil in block mode
	src rng.Source   // draw-through fallback
}

func (s *wordStream) init(src rng.Source, buf []uint64) {
	s.src = src
	if rw, ok := src.(rng.Rewinder); ok && len(buf) > 0 {
		s.rw = rw
		s.buf = buf
		s.pos = len(buf) // drained: the first draw fills the block
	} else {
		s.rw = nil
		s.buf = nil
		s.pos = 0
	}
}

// tryNext returns the stream's next word when the block has one — a
// bounds-known buffer load and a cursor bump, no calls, so it inlines
// into the trial loop. On a drained block (or in draw-through mode,
// always) it reports false and the caller falls back to refill; the
// pair at a call site is the moral equivalent of a next() method,
// split so the fast path fits the inlining budget with the refill call
// kept out of line.
func (s *wordStream) tryNext() (uint64, bool) {
	if s.pos < len(s.buf) {
		w := s.buf[s.pos]
		s.pos++
		return w, true
	}
	return 0, false
}

//go:noinline
func (s *wordStream) refill() uint64 {
	if s.rw == nil {
		return s.src.Uint64()
	}
	s.rw.Fill(s.buf)
	s.pos = 1
	return s.buf[0]
}

// next is tryNext/refill in one call, for paths where inlining the
// fast path does not matter.
func (s *wordStream) next() uint64 {
	if w, ok := s.tryNext(); ok {
		return w
	}
	return s.refill()
}

// finish returns the prefetched-but-unconsumed words to the source,
// restoring its position to exactly what scalar consumption would have
// left. Must run before the caller's source is used by anyone else.
func (s *wordStream) finish() {
	if s.rw != nil {
		s.rw.Unread(len(s.buf) - s.pos)
		s.pos = len(s.buf)
	}
}
