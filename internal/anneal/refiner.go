package anneal

import (
	"math"

	"repro/internal/partition"
	"repro/internal/rng"
)

// acceptMemo decides uphill Metropolis trials exactly, at the cost of
// one L1 lookup and one compare per trial. A trial accepts when
// u < exp(−ΔE/T) for u = Float64() = fw/2⁵³, fw = float64(word>>11).
// Both fw and the scaling are exact (fw < 2⁵³ is an integer, and
// multiplying exp's result, at most 1, by 2⁵³ only shifts its exponent),
// so the decision is exactly
//
//	fw < math.Exp(−ΔE/T)·2⁵³
//
// and the right side is a pure function of ΔE's bits and T. Within one
// temperature ΔE takes few distinct values — its gain and weight terms
// are small integers, and the imbalance term moves only on an accepted
// flip — so a small table keyed by the full bit pattern of ΔE, filled
// by math.Exp on a miss and reset whenever T changes, answers nearly
// every trial from L1. A hit is only ever an exact key match, so
// collisions, underflow to 0, subnormal thresholds and T = 0 (ΔE/T =
// +Inf) all decide exactly as the naive comparison does
// (TestAcceptMemoExact).
type acceptMemo struct {
	temp  float64 // T since the last reset
	slots [memoSize]memoEntry
}

type memoEntry struct {
	key uint64  // math.Float64bits(ΔE), or memoEmpty
	thr float64 // math.Exp(−ΔE/T)·2⁵³
}

const (
	memoBits = 9
	memoSize = 1 << memoBits // 8KB: L1-resident beside the trial loop's records
	// memoEmpty marks an unused slot. It is a NaN bit pattern, which no
	// finite ΔE has; the slot's threshold of 0 rejects, which is also the
	// naive decision for a NaN ΔE (u < NaN is false), so even a NaN that
	// carried this pattern would decide exactly.
	memoEmpty = ^uint64(0)
)

// reset empties the memo for temperature temp. Every change of
// temperature goes through here.
func (m *acceptMemo) reset(temp float64) {
	m.temp = temp
	for i := range m.slots {
		m.slots[i] = memoEntry{key: memoEmpty}
	}
}

// threshold returns math.Exp(−dE/T)·2⁵³ for the memo's temperature T.
func (m *acceptMemo) threshold(dE float64) float64 {
	e, ok := m.lookup(dE)
	if !ok {
		m.fill(e, dE)
	}
	return e.thr
}

// lookup returns dE's slot, picked by Fibonacci hashing of ΔE's bits,
// and whether it holds dE's threshold. It is threshold's hit path,
// small enough to inline into the trial loop, which open-codes
// threshold around it.
func (m *acceptMemo) lookup(dE float64) (*memoEntry, bool) {
	k := math.Float64bits(dE)
	e := &m.slots[(k*0x9E3779B97F4A7C15)>>(64-memoBits)]
	return e, e.key == k
}

// fill stores dE's threshold in its slot e. Misses are rare, so it stays
// out of line to keep the math.Exp call out of the trial loop's body.
//
//go:noinline
func (m *acceptMemo) fill(e *memoEntry, dE float64) {
	e.key = math.Float64bits(dE)
	e.thr = math.Exp(-dE/m.temp) * (1 << 53)
}

// vertexRec is the trial loop's whole view of a vertex: its gain and
// the signed doubled weight sw = +2·w(v) on side 0, −2·w(v) on side 1.
// Vertex weights are positive (every graph constructor refuses others),
// so the sign bit of sw is v's side, a trial is one 16-byte load, and
// an accepted flip rewrites one record per neighbor.
type vertexRec struct {
	gain int64
	sw   float64
}

// side returns the side the record's sign bit carries.
func (r vertexRec) side() uint8 { return uint8(math.Float64bits(r.sw) >> 63) }

// deltaCost returns the cost change of flipping the vertex of r, given
// d = float64(sideDiff) and d2 = d·d for the current side-weight
// difference sideDiff = w(V₀) − w(V₁). Callers hoist d and d2 and
// refresh them — always by converting the exact integer sideDiff, never
// by float accumulation — when a move is accepted. d − sw is d ∓ 2·w(v)
// exactly (IEEE subtraction of −x is addition of x), so every produced
// float is the plain Figure 1 delta's, bit for bit.
func deltaCost(d, d2 float64, r vertexRec, alpha float64) float64 {
	nd := d - r.sw
	return -float64(r.gain) + alpha*(nd*nd-d2)
}

// costAt returns the annealing cost cut + α·(w(V₀)−w(V₁))² from the
// hoisted square d2.
func costAt(cut int64, d2 float64, alpha float64) float64 {
	return float64(cut) + alpha*d2
}

// Refiner is the reusable workspace for annealing runs: the per-vertex
// records the trial loop reads and updates, the acceptance memo, the
// undo log of accepted moves, and the best-state side buffer the log
// materializes into. A zero Refiner is ready to use; it sizes itself to
// each graph it sees and is reused across runs without further
// allocation (a warm Refiner makes an entire Refine allocation-free —
// asserted by TestRefineSteadyStateZeroAlloc). Refiners carry no
// algorithm state between calls — using one never changes results — but
// they are not safe for concurrent use; give each goroutine its own (see
// core.WithWorkspace).
type Refiner struct {
	recs      []vertexRec // the run's live state; b is rebuilt from bestSides at the end
	bestSides []uint8     // best state seen, materialized from the log
	log       []int32     // accepted moves since the last fold (undo log), 2n entries
	words     []uint64    // wordStream prefetch block (graph-independent)
	memo      acceptMemo
}

// NewRefiner returns an empty workspace. Equivalent to new(Refiner);
// provided for call-site clarity.
func NewRefiner() *Refiner { return new(Refiner) }

// ensure sizes the workspace for b's graph and loads b's state into it:
// the records, and the best-state buffer as the current sides (the same
// workspace serves different graphs in turn — e.g. the coarse and fine
// levels of a compacted run). Once the workspace has seen a graph at
// least as large, this performs no allocation.
func (w *Refiner) ensure(b *partition.Bisection) {
	g := b.Graph()
	n := g.N()
	if cap(w.recs) < n {
		w.recs = make([]vertexRec, n)
		w.bestSides = make([]uint8, n)
		w.log = make([]int32, 2*n)
	}
	w.recs, w.bestSides, w.log = w.recs[:n], w.bestSides[:n], w.log[:2*n]
	sides, gains := b.SidesRef()[:n], b.GainsRef()[:n]
	for v := range w.recs {
		sw := 2 * float64(g.VertexWeight(int32(v)))
		if sides[v] != 0 {
			sw = -sw
		}
		w.recs[v] = vertexRec{gain: gains[v], sw: sw}
	}
	copy(w.bestSides, sides)
	if w.words == nil {
		w.words = make([]uint64, wordStreamBlock)
	}
}

// foldBest rewrites bestSides as the state the undo log marked best: the
// current sides, read off the records' signs, with the moves logged
// after the mark (tail) undone. A vertex flipped twice cancels, so
// flipping each tail entry is exactly the tail's parity.
func (w *Refiner) foldBest(tail []int32) {
	best := w.bestSides[:len(w.recs)]
	for v, r := range w.recs {
		best[v] = r.side()
	}
	for _, v := range tail {
		best[v] ^= 1
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

// finish returns the prefetched-but-unconsumed words to the source,
// restoring its position to exactly what scalar consumption would have
// left. Must run before the caller's source is used by anyone else.
func (s *wordStream) finish() {
	if s.rw != nil {
		s.rw.Unread(len(s.buf) - s.pos)
		s.pos = len(s.buf)
	}
}
