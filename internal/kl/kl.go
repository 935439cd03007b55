// Package kl implements the Kernighan–Lin graph bisection heuristic
// exactly as described in Figure 2 of the paper (and [KL70]).
//
// One pass starts from a bisection (A, B), computes every vertex gain,
// and then repeatedly selects the unlocked opposite-side pair (a, b)
// maximizing the swap gain g_ab = g_a + g_b − 2·w(a,b), tentatively
// exchanges it, locks both vertices, and updates the gains of their
// neighbors. After min(|A|,|B|) tentative exchanges, the prefix k with
// maximum cumulative gain is interchanged. Passes repeat until one yields
// no improvement (or a pass limit is reached).
//
// Options.Lookahead bounds a pass the way METIS's refinement does
// (Karypis & Kumar 1998): on a graph of more than 2·Lookahead vertices, a
// pass that has already improved the cut stops once its best prefix is
// Lookahead tentative exchanges behind. A pass that has not improved yet
// still runs to Figure 2's end, and the kept prefix is still the first
// strict maximum. Only the multilevel drivers set it; plain KL leaves it
// zero and runs every pass in full.
//
// As in the paper, a tentative exchange changes only the gains of the
// unlocked vertices, and those live in the gain buckets: each swap adds
// its ±2·w deltas to the neighbors' bucket entries and then re-slots the
// entries whose gain changed. The bisection is read when a pass starts
// and written once when it ends, with the k kept swaps; nothing is
// rolled back.
//
// Pair selection uses the classical admissible pruning: scanning
// candidates a and b in non-increasing gain order, every pair satisfies
// g_ab ≤ g_a + g_b, so scanning stops as soon as g_a + g_b cannot beat
// the best pair found. With bucket gain lists this makes a pass fast in
// practice; the pruning can be disabled (for the ablation benchmark),
// which falls back to the full quadratic scan with identical results.
//
// Hot-path engineering (none of it changes results): before the B-side
// candidates of a given a are scanned, a's incident edge weights are
// stamped into an epoch-versioned scratch array, so each scanned pair
// costs an O(1) array read instead of an adjacency probe; the B-side
// candidate sequence is memoized into a flat array as the bucket cursor
// first produces it; and all pass state (the two gain-bucket structures,
// the swap log, the scratch stamps) lives in a reusable Refiner
// workspace, so steady-state passes allocate nothing. The plain pass —
// linked-bucket walk, adjacency probe per pair, every tentative swap
// made in the bisection and rolled back past k — lives on only as the
// test oracle in oracle_test.go, which pins this one to it, trace events
// included.
package kl

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// Options configures the algorithm.
type Options struct {
	// MaxPasses caps the number of passes; 0 means run until a pass fails
	// to improve the cut (with a hard safety cap).
	MaxPasses int
	// DisablePruning turns off the admissible early termination of the
	// pair scan. Results are identical; only running time changes. Used by
	// the KL-scan ablation.
	DisablePruning bool
	// Lookahead, when > 0, bounds the passes on graphs of more than
	// 2·Lookahead vertices as the package comment describes; 0 runs
	// every pass to Figure 2's end.
	Lookahead int
	// Workspace, when non-nil, supplies the reusable pass state (gain
	// buckets, swap log, scratch stamps) so repeated runs allocate
	// nothing. A nil Workspace makes Run/Refine/Pass allocate a private
	// one. Workspaces are not safe for concurrent use; give each
	// goroutine its own (see core.WithWorkspace).
	Workspace *Refiner
	// Observer, when non-nil, receives move_batch, pass_done, and
	// run_done trace events (see docs/OBSERVABILITY.md). Observers never
	// touch the random stream, so attaching one cannot change the
	// resulting bisection; nil costs nothing.
	Observer trace.Observer
	// Control, when non-nil, is polled once before every pass. When it
	// stops, Refine returns the bisection as the last completed pass left
	// it — always valid and balanced, KL only exchanges opposite-side
	// pairs — together with the stop sentinel (see internal/runctl and
	// docs/ROBUSTNESS.md). A run under checkpoint budget k is identical
	// to an uncancelled run with MaxPasses = k; nil costs nothing.
	Control *runctl.Control
}

// MultilevelLookahead is the Lookahead of the multilevel KL drivers.
// Levels of at most 2,048 vertices keep full passes. In the Gbreg runs
// of docs/PERFORMANCE.md (10⁴ to 10⁶ vertices) no improving pass found
// a better prefix more than 130 exchanges after its previous best; some
// G2set, Gnp and grid passes do, and that document measures the cost.
const MultilevelLookahead = 1024

// safetyPassCap bounds the pass loop when MaxPasses is 0. Each counted
// pass strictly decreases the cut, so for the repository's graphs this is
// never reached; it exists to make non-termination impossible.
const safetyPassCap = 1000

// Stats reports what a Run or Refine did.
type Stats struct {
	Passes       int   // passes executed (including the final non-improving one)
	Swaps        int   // pairs kept across all passes
	InitialCut   int64 // cut before the first pass
	FinalCut     int64 // cut after the last pass
	ScannedPairs int64 // candidate pairs examined during selection
}

type swapRec struct{ a, bv int32 }

// Refiner is the reusable workspace for KL passes: the two gain-bucket
// structures, the swap log, and the epoch-stamped neighbor-weight scratch
// used by the pair scan. A zero Refiner is ready to use; it sizes itself
// to each graph it sees and is reused across passes, starts, and
// multilevel levels without further allocation. Refiners carry no
// algorithm state between calls — using one never changes results — but
// they are not safe for concurrent use.
type Refiner struct {
	buckets [2]partition.GainBuckets
	swaps   []swapRec
	// scratch[v] packs (epoch, w(a,v)) for the currently stamped a —
	// epoch in the high 32 bits, edge weight in the low 32 — so the pair
	// scan's connectivity lookup is a single aligned load.
	scratch []uint64
	epoch   uint32
	// bseq memoizes the descending (gain, vertex) B-side sequence within
	// one selectPair, packed gain-high/vertex-low, so replays for later
	// A-candidates read a flat array instead of chasing bucket links.
	bseq []uint64
}

// Close does nothing: a Refiner holds no goroutines or other resources
// beyond its buffers.
//
// Deprecated: kept only for cmd/benchmark, its one caller; the next
// change to that benchmark removes both.
func (w *Refiner) Close() {}

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
	if cap(w.scratch) < n {
		w.scratch = make([]uint64, n)
		w.epoch = 0
	}
	w.scratch = w.scratch[:n]
	if w.swaps == nil {
		w.swaps = make([]swapRec, 0, n/2+1)
	}
	return nil
}

// stamp records a's incident edge weights in the scratch array under a
// fresh epoch and returns that epoch. Entries from earlier stampings stay
// in place but carry older epochs, so a single comparison identifies the
// valid ones — no clearing between stampings.
func (w *Refiner) stamp(g *graph.Graph, a int32) uint32 {
	w.epoch++
	if w.epoch == 0 {
		// Wrapped around: stale stamps could collide with reused epoch
		// values, so clear everything once per 2³² stampings. The full
		// capacity is cleared because ensure() may later re-expose hidden
		// entries on a larger graph.
		clear(w.scratch[:cap(w.scratch)])
		w.epoch = 1
	}
	hi := uint64(w.epoch) << 32
	for _, e := range g.Neighbors(a) {
		w.scratch[e.To] = hi | uint64(uint32(e.W))
	}
	return w.epoch
}

// Refine runs KL passes on b in place until no pass improves the cut (or
// opts.MaxPasses is reached). The bisection's side sizes are preserved
// exactly: KL only ever exchanges opposite-side pairs.
func Refine(b *partition.Bisection, opts Options) (Stats, error) {
	return workspace(opts).Refine(b, opts)
}

// workspace returns opts.Workspace, or a private Refiner when it is nil.
func workspace(opts Options) *Refiner {
	if opts.Workspace != nil {
		return opts.Workspace
	}
	return new(Refiner)
}

// Refine is Refine using this workspace (opts.Workspace is ignored).
func (w *Refiner) Refine(b *partition.Bisection, opts Options) (Stats, error) {
	return w.refine(b, opts, false)
}

// refine is Refine that, when repair is set, ends in
// partition.RepairBalance before it fills in FinalCut and reports
// run_done, so both describe the bisection the caller gets back.
func (w *Refiner) refine(b *partition.Bisection, opts Options, repair bool) (Stats, error) {
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
		improved, swaps, tentative, scanned, err := w.pass(b, opts)
		st.Passes++
		st.Swaps += swaps
		st.ScannedPairs += scanned
		if err != nil {
			return st, err
		}
		st.FinalCut = b.Cut()
		if obs != nil {
			// KL never keeps a worsening prefix, so cut == best cut.
			obs.Observe(trace.Event{
				Type: trace.TypePassDone, Algo: "kl", Index: p,
				Cut: st.FinalCut, BestCut: st.FinalCut, Imbalance: b.Imbalance(),
				Gain: improved, Moves: swaps, Scanned: scanned, Tentative: tentative,
				ElapsedNS: time.Since(passStart).Nanoseconds(),
			})
		}
		if improved <= 0 {
			break
		}
	}
	if repair {
		partition.RepairBalance(b)
		st.FinalCut = b.Cut()
	}
	if obs != nil {
		obs.Observe(trace.Event{
			Type: trace.TypeRunDone, Algo: "kl", Index: st.Passes,
			Cut: st.FinalCut, BestCut: st.FinalCut, Imbalance: b.Imbalance(),
			Gain: st.InitialCut - st.FinalCut, Moves: st.Swaps, Scanned: st.ScannedPairs,
			ElapsedNS: time.Since(runStart).Nanoseconds(),
		})
	}
	return st, stopErr
}

// Run bisects g from a fresh random balanced bisection. KL keeps the
// start's vertex counts, so on weighted graphs Run ends in
// partition.RepairBalance, which brings the weight imbalance within the
// largest vertex weight; the returned Stats and the run_done event
// describe the repaired bisection.
func Run(g *graph.Graph, opts Options, r *rng.Rand) (*partition.Bisection, Stats, error) {
	b := partition.NewRandom(g, r)
	st, err := workspace(opts).refine(b, opts, true)
	return b, st, err
}

// Pass executes one KL pass on b (Figure 2; opts.Lookahead may end it
// early). It returns the cut improvement achieved (≥ 0), the number of
// pair exchanges kept, and the number of candidate pairs scanned.
func Pass(b *partition.Bisection, opts Options) (improvement int64, kept int, scanned int64, err error) {
	return workspace(opts).Pass(b, opts)
}

// Pass is Pass using this workspace (opts.Workspace is ignored).
func (w *Refiner) Pass(b *partition.Bisection, opts Options) (improvement int64, kept int, scanned int64, err error) {
	improvement, kept, _, scanned, err = w.pass(b, opts)
	return improvement, kept, scanned, err
}

// pass is Pass that also returns, when opts.Lookahead ended the pass
// early, the number of tentative exchanges it made (0 otherwise).
func (w *Refiner) pass(b *partition.Bisection, opts Options) (improvement int64, kept, tentative int, scanned int64, err error) {
	g := b.Graph()
	n := g.N()
	if n == 0 {
		return 0, 0, 0, 0, nil
	}
	if err := w.ensure(g); err != nil {
		return 0, 0, 0, 0, err
	}
	buckets := [2]*partition.GainBuckets{&w.buckets[0], &w.buckets[1]}
	for v := int32(0); int(v) < n; v++ {
		buckets[b.Side(v)].Add(v, b.Gain(v))
	}
	steps := min(buckets[0].Len(), buckets[1].Len())
	look := steps // never reached: Figure 2's full pass
	if opts.Lookahead > 0 && n > 2*opts.Lookahead {
		look = opts.Lookahead
	}

	// The tentative exchanges never touch b: an unlocked vertex keeps its
	// starting side, and its live gain is its bucket entry's.
	side := b.SidesRef()
	swaps := w.swaps[:0]
	var cum, bestCum int64
	bestK := 0

	// Intra-pass tracing state; untouched (and unallocated) when no
	// observer is attached. diff is the tentative w(side 0) − w(side 1).
	obs := opts.Observer
	var startCut, diff, batchMaxGain int64
	batchFill, batchIdx := 0, 0
	if obs != nil {
		startCut = b.Cut()
		diff = b.SideWeight(0) - b.SideWeight(1)
	}

	for i := 0; i < steps; i++ {
		if bestCum > 0 && i-bestK >= look {
			tentative = i // the bound, not Figure 2, ends this pass
			break
		}
		a, bv, g2, sc := w.selectPair(g, buckets, opts)
		scanned += sc
		if a < 0 {
			break // no opposite-side pair remains (disconnected corner case)
		}
		// Tentative exchange of a (side 0) and bv (side 1); lock both.
		// Moving x across changes an unlocked neighbor u's gain by
		// +2·w(x,u) if u starts on x's side and −2·w(x,u) otherwise. All
		// of both deltas land before any entry moves, and the entries
		// then move in N(a)-then-N(bv) order: exactly the repositions of
		// swapping in the bisection and refreshing each neighbor from its
		// gain, so the LIFO bucket layout is the same.
		buckets[0].Remove(a)
		buckets[1].Remove(bv)
		na, nb := g.Neighbors(a), g.Neighbors(bv)
		shiftGains(na, side, buckets, 0)
		shiftGains(nb, side, buckets, 1)
		for _, e := range na {
			buckets[side[e.To]&1].Settle(e.To)
		}
		for _, e := range nb {
			buckets[side[e.To]&1].Settle(e.To)
		}
		swaps = append(swaps, swapRec{a: a, bv: bv})
		cum += g2
		if cum > bestCum {
			bestCum = cum
			bestK = len(swaps)
		}
		if obs != nil {
			diff -= 2 * int64(g.VertexWeight(a)-g.VertexWeight(bv))
			if batchFill == 0 || g2 > batchMaxGain {
				batchMaxGain = g2
			}
			batchFill++
			if batchFill == trace.MoveBatchSize {
				emitMoveBatch(obs, batchIdx, len(swaps), startCut, cum, bestCum, diff, batchMaxGain, scanned)
				batchFill = 0
				batchIdx++
			}
		}
	}
	if obs != nil && batchFill > 0 {
		emitMoveBatch(obs, batchIdx, len(swaps), startCut, cum, bestCum, diff, batchMaxGain, scanned)
	}

	// Interchange the kept prefix (Figure 2, step 10).
	for _, s := range swaps[:bestK] {
		b.Swap(s.a, s.bv)
	}
	w.swaps = swaps[:0] // keep the grown capacity for the next pass
	return bestCum, bestK, tentative, scanned, nil
}

// shiftGains adds to the live gain of every unlocked neighbor u of a
// vertex x with adjacency nbrs the change that moving x off side sx
// makes: +2·w(x,u) when u is on sx, −2·w(x,u) otherwise. Neighbor sides
// are close to coin flips, so the sign is applied without a branch, as
// in Bisection.Move. Sides are 0 or 1; masking them with &1 here and in
// Pass only lets the compiler drop the bounds check on buckets.
func shiftGains(nbrs []graph.Edge, side []uint8, buckets [2]*partition.GainBuckets, sx uint8) {
	for _, e := range nbrs {
		su := side[e.To] & 1
		d := int64(e.W) << 1
		m := -int64(su ^ sx)
		buckets[su].AddGain(e.To, (d^m)-m)
	}
}

// emitMoveBatch reports an intra-pass progress sample: the cut of the
// tentative state, the cut the best prefix so far would yield, the
// tentative imbalance |diff|, and the batch's largest single swap gain.
func emitMoveBatch(obs trace.Observer, batchIdx, moves int, startCut, cum, bestCum, diff, maxGain int64, scanned int64) {
	if diff < 0 {
		diff = -diff
	}
	obs.Observe(trace.Event{
		Type: trace.TypeMoveBatch, Algo: "kl", Index: batchIdx,
		Cut: startCut - cum, BestCut: startCut - bestCum, Imbalance: diff,
		Gain: cum, MaxGain: maxGain, Moves: moves, Scanned: scanned,
	})
}

// selectPair returns the unlocked opposite-side pair with maximum swap
// gain, or a = −1 if either side is exhausted.
//
// The B-side candidate sequence is memoized into a flat packed array as
// the bucket cursor first produces it: later A-candidates replay their
// (pruned) prefix from contiguous memory instead of re-chasing the gain
// buckets' linked entries. The candidate order — and with it every
// pruning decision, the selected pair, and the scanned count — is
// exactly the cursor walk's; bucket gains fit int32 (the bucket span is
// capped far below that), so the (gain, vertex) packing is lossless.
func (w *Refiner) selectPair(g *graph.Graph, buckets [2]*partition.GainBuckets, opts Options) (a, bv int32, gain int64, scanned int64) {
	if buckets[0].Len() == 0 || buckets[1].Len() == 0 {
		return -1, -1, 0, 0
	}
	noPrune := opts.DisablePruning
	_, maxB, _ := buckets[1].Max()
	first := true
	var bestA, bestB int32
	var best int64
	scratch := w.scratch
	bseq := w.bseq[:0]
	cb := buckets[1].Cursor()
	for ca := buckets[0].Cursor(); ca.Valid(); ca.Next() {
		av, ga := ca.V(), ca.Gain()
		if !noPrune && !first && ga+maxB <= best {
			break // no a beyond this point can beat best
		}
		cur := uint64(w.stamp(g, av)) << 32
		for i := 0; ; i++ {
			if i == len(bseq) {
				if !cb.Valid() {
					break
				}
				bseq = append(bseq, uint64(uint32(int32(cb.Gain())))<<32|uint64(uint32(cb.V())))
				cb.Next()
			}
			q := bseq[i]
			gb := int64(int32(uint32(q >> 32)))
			bvv := int32(uint32(q))
			if !noPrune && !first && ga+gb <= best {
				break
			}
			scanned++
			var ew int64
			if s := scratch[bvv]; s&^0xFFFFFFFF == cur {
				ew = int64(int32(uint32(s)))
			}
			pg := ga + gb - 2*ew
			if first || pg > best {
				first = false
				best = pg
				bestA, bestB = av, bvv
			}
		}
	}
	w.bseq = bseq // keep the grown capacity for the next selection
	if first {
		return -1, -1, 0, scanned
	}
	return bestA, bestB, best, scanned
}

// String implements a compact summary for logs.
func (s Stats) String() string {
	return fmt.Sprintf("kl{passes=%d swaps=%d cut %d→%d scanned=%d}", s.Passes, s.Swaps, s.InitialCut, s.FinalCut, s.ScannedPairs)
}
