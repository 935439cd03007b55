package kl

import (
	"testing"

	"repro/internal/partition"
	"repro/internal/trace"
)

// plainRefine is the test oracle for Refine: KL passes written the plain
// way — every candidate pair read off the linked gain buckets through
// their cursors, every connecting weight probed from the adjacency, no
// scratch stamps, no flat B-side replay. Every tentative swap is made in
// the bisection, every neighbor's bucket entry is refreshed from the
// bisection's gain, and all swaps past the best prefix are rolled back.
// It must make exactly the decisions the production pass makes, so its
// sides, Stats and events are the reference that pass is pinned to: the
// move_batch cut and imbalance are read off the oracle's live bisection.
// opts.Lookahead ends a pass by the same rule as production: on a graph
// of more than 2·Lookahead vertices, once the pass has improved and its
// best prefix is Lookahead swaps behind.
//
// With bruteMax set, every selected pair is additionally checked against
// a full scan of all unlocked opposite-side pairs whose gains are
// recomputed from the adjacency (the networkx formulation: D(a) + D(b) −
// 2·w(a,b) over dictionaries of external-minus-internal costs), which
// shares nothing with the incremental gain machinery.
func plainRefine(t testing.TB, b *partition.Bisection, opts Options, bruteMax bool) Stats {
	t.Helper()
	st := Stats{InitialCut: b.Cut(), FinalCut: b.Cut()}
	limit := opts.MaxPasses
	if limit <= 0 {
		limit = safetyPassCap
	}
	obs := opts.Observer
	for p := 0; p < limit; p++ {
		improved, swaps, tentative, scanned := plainPass(t, b, opts, bruteMax)
		st.Passes++
		st.Swaps += swaps
		st.ScannedPairs += scanned
		st.FinalCut = b.Cut()
		if obs != nil {
			obs.Observe(trace.Event{
				Type: trace.TypePassDone, Algo: "kl", Index: p,
				Cut: b.Cut(), BestCut: b.Cut(), Imbalance: b.Imbalance(),
				Gain: improved, Moves: swaps, Scanned: scanned, Tentative: tentative,
			})
		}
		if improved <= 0 {
			break
		}
	}
	if obs != nil {
		obs.Observe(trace.Event{
			Type: trace.TypeRunDone, Algo: "kl", Index: st.Passes,
			Cut: b.Cut(), BestCut: b.Cut(), Imbalance: b.Imbalance(),
			Gain: st.InitialCut - st.FinalCut, Moves: st.Swaps, Scanned: st.ScannedPairs,
		})
	}
	return st
}

// plainPass is one Figure 2 pass of the oracle. tentative is the number
// of swaps made when the lookahead ended the pass, 0 otherwise.
func plainPass(t testing.TB, b *partition.Bisection, opts Options, bruteMax bool) (improvement int64, kept, tentative int, scanned int64) {
	g := b.Graph()
	n := g.N()
	if n == 0 {
		return 0, 0, 0, 0
	}
	buckets := bucketsOf(t, b)
	locked := make([]bool, n)
	steps := min(buckets[0].Len(), buckets[1].Len())
	var swaps [][2]int32
	var cum, bestCum int64
	bestK := 0
	obs := opts.Observer
	startCut := b.Cut()
	var batch []int64 // swap gains since the last move_batch
	emit := func() {
		ev := trace.Event{
			Type: trace.TypeMoveBatch, Algo: "kl", Index: (len(swaps) - 1) / trace.MoveBatchSize,
			Cut: b.Cut(), BestCut: startCut - bestCum, Imbalance: b.Imbalance(),
			Gain: cum, MaxGain: batch[0], Moves: len(swaps), Scanned: scanned,
		}
		for _, x := range batch {
			ev.MaxGain = max(ev.MaxGain, x)
		}
		obs.Observe(ev)
		batch = batch[:0]
	}
	bounded := opts.Lookahead > 0 && n > 2*opts.Lookahead
	for i := 0; i < steps; i++ {
		if bounded && bestCum > 0 && len(swaps)-bestK >= opts.Lookahead {
			tentative = len(swaps)
			break
		}
		a, bv, gain, sc := plainSelect(b, buckets, opts.DisablePruning)
		scanned += sc
		if a < 0 {
			break
		}
		if bruteMax {
			if want := bruteMaxSwapGain(b, locked); gain != want {
				t.Fatalf("step %d: selected pair (%d,%d) gains %d, best unlocked pair gains %d", i, a, bv, gain, want)
			}
		}
		buckets[b.Side(a)].Remove(a)
		buckets[b.Side(bv)].Remove(bv)
		locked[a], locked[bv] = true, true
		b.Swap(a, bv)
		for _, v := range [2]int32{a, bv} {
			for _, e := range g.Neighbors(v) {
				buckets[b.Side(e.To)].UpdateIfPresent(e.To, b.Gain(e.To))
			}
		}
		swaps = append(swaps, [2]int32{a, bv})
		cum += gain
		if cum > bestCum {
			bestCum, bestK = cum, len(swaps)
		}
		if obs != nil {
			if batch = append(batch, gain); len(batch) == trace.MoveBatchSize {
				emit()
			}
		}
	}
	if obs != nil && len(batch) > 0 {
		emit()
	}
	for i := len(swaps) - 1; i >= bestK; i-- {
		b.Swap(swaps[i][0], swaps[i][1])
	}
	return bestCum, bestK, tentative, scanned
}

// plainSelect walks both bucket cursors in descending gain order with
// the admissible pruning of selectPair, probing g for each pair weight.
func plainSelect(b *partition.Bisection, buckets *[2]partition.GainBuckets, noPrune bool) (a, bv int32, gain int64, scanned int64) {
	if buckets[0].Len() == 0 || buckets[1].Len() == 0 {
		return -1, -1, 0, 0
	}
	g := b.Graph()
	_, maxB, _ := buckets[1].Max()
	first := true
	for ca := buckets[0].Cursor(); ca.Valid(); ca.Next() {
		av, ga := ca.V(), ca.Gain()
		if !noPrune && !first && ga+maxB <= gain {
			break
		}
		for cb := buckets[1].Cursor(); cb.Valid(); cb.Next() {
			bvv, gb := cb.V(), cb.Gain()
			if !noPrune && !first && ga+gb <= gain {
				break
			}
			scanned++
			if pg := ga + gb - 2*int64(g.EdgeWeight(av, bvv)); first || pg > gain {
				first = false
				gain, a, bv = pg, av, bvv
			}
		}
	}
	if first {
		return -1, -1, 0, scanned
	}
	return a, bv, gain, scanned
}

// bruteMaxSwapGain returns max D(a) + D(b) − 2·w(a,b) over unlocked
// pairs a ∈ side 0, b ∈ side 1, with D recomputed from the adjacency.
func bruteMaxSwapGain(b *partition.Bisection, locked []bool) int64 {
	g := b.Graph()
	n := g.N()
	d := make([]int64, n)
	w := make(map[[2]int32]int64)
	for v := int32(0); int(v) < n; v++ {
		for _, e := range g.Neighbors(v) {
			if b.Side(e.To) != b.Side(v) {
				d[v] += int64(e.W)
			} else {
				d[v] -= int64(e.W)
			}
			w[[2]int32{v, e.To}] = int64(e.W)
		}
	}
	first := true
	var best int64
	for x := int32(0); int(x) < n; x++ {
		if locked[x] || b.Side(x) != 0 {
			continue
		}
		for y := int32(0); int(y) < n; y++ {
			if locked[y] || b.Side(y) != 1 {
				continue
			}
			if pg := d[x] + d[y] - 2*w[[2]int32{x, y}]; first || pg > best {
				first, best = false, pg
			}
		}
	}
	return best
}
