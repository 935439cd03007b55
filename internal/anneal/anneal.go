// Package anneal implements simulated annealing for graph bisection,
// following the paper's Figure 1 and the Johnson–Aragon–McGeoch–Schevon
// parameterization it cites ([JCAMS84], published as JAMS'89):
//
//   - states are arbitrary two-way partitions (not necessarily balanced);
//   - the cost function is cut(V1,V2) + α·(w(V1)−w(V2))², so imbalance is
//     penalized rather than forbidden;
//   - a move flips one uniformly random vertex; downhill moves are always
//     accepted, uphill moves with probability exp(−Δ/T);
//   - the start temperature is calibrated so the initial acceptance ratio
//     is roughly InitProb; each temperature runs SizeFactor·|V| trials;
//     the temperature is then multiplied by TempFactor;
//   - the system is "frozen" when the acceptance ratio stays below
//     MinPercent for FreezeLim consecutive temperatures with no
//     improvement to the best solution seen.
//
// As the paper notes, SA can migrate away from an optimum found at high
// temperature, so the best state seen is saved throughout; at the end it
// is rebalanced to an exact bisection with gain-aware repair moves.
package anneal

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// Options configures the annealing schedule. Zero values select the
// defaults noted on each field (the JAMS'89 choices).
type Options struct {
	// Alpha is the imbalance penalty coefficient (default 0.05).
	Alpha float64
	// InitProb is the target initial acceptance probability used to
	// calibrate the start temperature (default 0.4).
	InitProb float64
	// SizeFactor scales trials per temperature: SizeFactor·|V| (default 16).
	SizeFactor int
	// TempFactor is the geometric cooling rate (default 0.95).
	TempFactor float64
	// MinPercent is the freezing acceptance-ratio threshold (default 0.02).
	MinPercent float64
	// FreezeLim is how many consecutive low-acceptance, no-improvement
	// temperatures constitute frozen (default 5).
	FreezeLim int
	// MaxTemps caps the temperature count as a safety net (default 2000).
	MaxTemps int
	// Acceptance selects the uphill-move rule: AcceptMetropolis (default,
	// Figure 1's exp(−Δ/T)) or AcceptThreshold (deterministic Δ < T,
	// Dueck & Scheuer's "threshold accepting" — a later simplification
	// included for the schedule ablation).
	Acceptance AcceptanceRule
	// Cooling selects the temperature decrement: CoolGeometric (default,
	// T ← TempFactor·T, Figure 1's "REDUCE TEMPERATURE") or CoolAdaptive
	// (Aarts–van Laarhoven: T ← T / (1 + T·ln(1+Delta)/(3σ_T)), where σ_T
	// is the cost standard deviation observed at the current temperature
	// — slow cooling through phase transitions, fast elsewhere).
	Cooling CoolingRule
	// Delta is the adaptive schedule's distance parameter (default 0.1;
	// smaller = slower, higher-quality cooling). Ignored for geometric
	// cooling.
	Delta float64
	// Workspace, when non-nil, supplies the reusable run state (vertex
	// records, acceptance memo, undo log, best-state buffer) so repeated
	// runs allocate nothing. A nil Workspace makes Run/Refine allocate
	// a private one. Workspaces are not safe for concurrent use; give
	// each goroutine its own (see core.WithWorkspace).
	Workspace *Refiner
	// Observer, when non-nil, receives move_batch, temp_done, and
	// run_done trace events (see docs/OBSERVABILITY.md) — the
	// temperature/acceptance-ratio decay the freezing criterion acts on.
	// Observers never draw from the random stream, so attaching one
	// cannot change the run; nil costs nothing.
	Observer trace.Observer
	// Control, when non-nil, is polled once before every temperature.
	// When it stops, Refine adopts the best state seen so far, rebalances
	// it exactly as a frozen run would, and returns it together with the
	// stop sentinel (see internal/runctl and docs/ROBUSTNESS.md). A run
	// under checkpoint budget k is identical to an uncancelled run with
	// MaxTemps = k; nil costs nothing.
	Control *runctl.Control
}

// CoolingRule selects the temperature decrement rule.
type CoolingRule int

const (
	// CoolGeometric multiplies the temperature by TempFactor.
	CoolGeometric CoolingRule = iota
	// CoolAdaptive uses the Aarts–van Laarhoven variance-based decrement.
	CoolAdaptive
)

// AcceptanceRule selects how uphill moves are accepted.
type AcceptanceRule int

const (
	// AcceptMetropolis accepts an uphill move with probability exp(−Δ/T).
	AcceptMetropolis AcceptanceRule = iota
	// AcceptThreshold accepts any move with Δ < T deterministically.
	AcceptThreshold
)

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.InitProb <= 0 || o.InitProb >= 1 {
		o.InitProb = 0.4
	}
	if o.SizeFactor <= 0 {
		o.SizeFactor = 16
	}
	if o.TempFactor <= 0 || o.TempFactor >= 1 {
		o.TempFactor = 0.95
	}
	if o.MinPercent <= 0 {
		o.MinPercent = 0.02
	}
	if o.FreezeLim <= 0 {
		o.FreezeLim = 5
	}
	if o.MaxTemps <= 0 {
		o.MaxTemps = 2000
	}
	if o.Delta <= 0 {
		o.Delta = 0.1
	}
	return o
}

// Stats reports what a run did.
type Stats struct {
	Temperatures int
	Trials       int64
	Accepted     int64
	StartTemp    float64
	FinalTemp    float64
	InitialCut   int64
	FinalCut     int64 // after rebalancing
}

// String implements a compact summary for logs.
func (s Stats) String() string {
	return fmt.Sprintf("sa{temps=%d trials=%d acc=%.1f%% T %g→%g cut %d→%d}",
		s.Temperatures, s.Trials, 100*float64(s.Accepted)/math.Max(1, float64(s.Trials)),
		s.StartTemp, s.FinalTemp, s.InitialCut, s.FinalCut)
}

// Refine anneals b in place starting from its current state and returns
// run statistics. On return b is a balanced bisection (imbalance at the
// parity minimum for unit weights): the best state seen during the run,
// rebalanced with gain-aware repair moves.
func Refine(b *partition.Bisection, opts Options, r *rng.Rand) (Stats, error) {
	return workspace(opts).Refine(b, opts, r)
}

// Refine is Refine using this workspace (opts.Workspace is ignored).
// With a warm workspace the whole call — calibration, every
// temperature, and the final best-state materialization — performs no
// heap allocation.
func (w *Refiner) Refine(b *partition.Bisection, opts Options, r *rng.Rand) (Stats, error) {
	o := opts.withDefaults()
	g := b.Graph()
	n := g.N()
	st := Stats{InitialCut: b.Cut(), FinalCut: b.Cut()}
	if n == 0 {
		return st, nil
	}
	w.ensure(b)

	// The trial loop works on the workspace's vertex records alone and
	// maintains cut and side-weight difference itself; b is untouched
	// until SetSides rebuilds it from the best sides at run end. The
	// float arithmetic in deltaCost/costAt is operation-identical to the
	// plain Figure 1 code; nothing below may change a result.
	recs := w.recs
	alpha := o.Alpha
	sideDiff := b.SideWeight(0) - b.SideWeight(1)
	// d and d2 shadow float64(sideDiff) and its square; they are
	// refreshed from the exact integer whenever a move is accepted, so
	// deltaCost never re-derives them per trial.
	d := float64(sideDiff)
	d2 := d * d
	curCut := b.Cut()
	metropolis := o.Acceptance != AcceptThreshold
	adaptive := o.Cooling == CoolAdaptive

	// The loops draw words through a block-prefetching stream and
	// open-code Intn's Lemire reduction and Float64's conversion with
	// the exact arithmetic of the rng.Rand methods, so the word stream
	// and every derived value are unchanged (the golden fixture pins
	// this); the stream's deferred finish returns any prefetched,
	// unconsumed words so later users of r see no difference either.
	// The single rejection test `lo >= thresh` is the two-test
	// original folded together: thresh < n, so lo < thresh is
	// precisely the redraw condition.
	un := uint64(n)
	unThresh := -un % un
	var ws wordStream
	ws.init(r.Source(), w.words)
	defer ws.finish()

	obs := o.Observer
	var runStart time.Time
	if obs != nil {
		runStart = time.Now()
	}

	temp := w.calibrateStartTemp(o, sideDiff, &ws)
	st.StartTemp = temp

	// The trial loop manages the stream's block cursor in locals (wbuf
	// never changes identity across refills; draw-through mode keeps it
	// nil so every draw takes the refill path). Stores into the records
	// would otherwise force the compiler to re-load the cursor field —
	// and re-check bounds — on every draw. ws.pos is synced back before
	// anything else touches the stream.
	wbuf := ws.buf
	wpos := ws.pos

	// Best-state tracking. ensure copied the starting sides into
	// bestSides; every accepted move is then appended to the undo log,
	// and an improvement costs O(1): remember the log position. When the
	// log fills (2n entries) and at run end, the marked state is folded
	// into bestSides in O(n) and the log restarts — O(1) amortized per
	// accepted move and O(n) memory, against an O(n) full-state copy per
	// improvement for the clone-on-improvement scheme the test oracle
	// (oracle_test.go) keeps.
	bestCost := costAt(curCut, d2, alpha)
	bestCut := curCut
	log := w.log
	logN := 0
	bestMark := -1

	frozen := 0
	trialsPerTemp := int64(o.SizeFactor) * int64(n)

	var stopErr error
	for t := 0; t < o.MaxTemps && frozen < o.FreezeLim; t++ {
		if stopErr = o.Control.Check(); stopErr != nil {
			// Fall through to the adopt-best-and-rebalance epilogue: a
			// cancelled run ends exactly like a frozen one, just earlier.
			break
		}
		w.memo.reset(temp)
		var accepted int64
		improvedBest := false
		var tempStart time.Time
		batchIdx := 0
		if obs != nil {
			tempStart = time.Now()
		}
		// Running cost statistics for the adaptive schedule.
		cur := costAt(curCut, d2, alpha)
		var costSum, costSumSq float64
		for k := int64(0); k < trialsPerTemp; k++ {
			var v int32
			for {
				var word uint64
				if wpos < len(wbuf) {
					word = wbuf[wpos]
					wpos++
				} else {
					ws.pos = wpos
					word = ws.refill()
					wpos = ws.pos
				}
				hi, lo := bits.Mul64(word, un)
				if lo >= unThresh {
					v = int32(hi)
					break
				}
			}
			vi := int(v)
			if uint(vi) >= uint(len(recs)) {
				// Unreachable — hi = ⌊word·n/2⁶⁴⌋ < n — but the range
				// test is what lets the compiler drop the bounds check
				// on the record load below.
				continue
			}
			rv := &recs[vi]
			dE := deltaCost(d, d2, *rv, alpha)
			accept := dE <= 0
			if !accept {
				if metropolis {
					var word uint64
					if wpos < len(wbuf) {
						word = wbuf[wpos]
						wpos++
					} else {
						ws.pos = wpos
						word = ws.refill()
						wpos = ws.pos
					}
					// w.memo.threshold(dE), open-coded so the hit path
					// inlines.
					e, ok := w.memo.lookup(dE)
					if !ok {
						w.memo.fill(e, dE)
					}
					accept = float64(word>>11) < e.thr
				} else {
					accept = dE < temp
				}
			}
			if accept {
				if logN == len(log) {
					if bestMark >= 0 {
						w.foldBest(log[bestMark:logN])
					}
					logN, bestMark = 0, -1
				}
				// Apply the flip — partition.Move's arithmetic on the
				// records, with cut and side-weight difference kept in
				// curCut/sideDiff. A neighbor's gain falls by 2·w(e) if
				// it now sits on v's side and rises by 2·w(e) otherwise;
				// m selects the sign without a branch (m = −1 when the
				// sign bits agree, negating d).
				gv := rv.gain
				curCut -= gv
				rv.gain = -gv
				sw := rv.sw
				rv.sw = -sw
				nb := math.Float64bits(-sw)
				for _, e := range g.Neighbors(v) {
					d := int64(e.W) << 1
					u := &recs[e.To]
					m := int64((math.Float64bits(u.sw)^nb)>>63) - 1
					u.gain += (d ^ m) - m
				}
				log[logN] = v
				logN++
				// sw = ±2·w(v) is exactly the change of w(V₀)−w(V₁).
				sideDiff -= int64(sw)
				d = float64(sideDiff)
				d2 = d * d
				cur += dE
				accepted++
				if cur < bestCost {
					// Recompute exactly to avoid float drift in the saved
					// best (dE accumulation is exact in spirit but float).
					// One evaluation serves both the comparison and the
					// running-cost reset the adaptive schedule reads.
					if c := costAt(curCut, d2, alpha); c < bestCost {
						bestCost = c
						bestCut = curCut
						improvedBest = true
						bestMark = logN
						cur = c
					} else {
						cur = c
					}
				}
			}
			if adaptive {
				// The running cost moments feed only the Aarts–van
				// Laarhoven temperature update; geometric runs skip the
				// bookkeeping.
				costSum += cur
				costSumSq += cur * cur
			}
			if obs != nil && (k+1)%trace.SAMoveBatchSize == 0 {
				imb := sideDiff
				if imb < 0 {
					imb = -imb
				}
				obs.Observe(trace.Event{
					Type: trace.TypeMoveBatch, Algo: "sa", Index: batchIdx,
					Cut: curCut, BestCut: bestCut, Imbalance: imb,
					Trials: k + 1, Accepted: accepted,
					AcceptRatio: float64(accepted) / float64(k+1), Temp: temp,
				})
				batchIdx++
			}
		}
		st.Temperatures++
		st.Trials += trialsPerTemp
		st.Accepted += accepted
		st.FinalTemp = temp
		if obs != nil {
			imb := sideDiff
			if imb < 0 {
				imb = -imb
			}
			obs.Observe(trace.Event{
				Type: trace.TypeTempDone, Algo: "sa", Index: t,
				Cut: curCut, BestCut: bestCut, Imbalance: imb,
				Trials: trialsPerTemp, Accepted: accepted,
				AcceptRatio: float64(accepted) / float64(trialsPerTemp), Temp: temp,
				ElapsedNS: time.Since(tempStart).Nanoseconds(),
			})
		}
		if adaptive {
			mean := costSum / float64(trialsPerTemp)
			variance := costSumSq/float64(trialsPerTemp) - mean*mean
			if variance < 1e-12 {
				variance = 1e-12
			}
			sigma := math.Sqrt(variance)
			temp = temp / (1 + temp*math.Log(1+o.Delta)/(3*sigma))
		} else {
			temp *= o.TempFactor
		}
		if float64(accepted) < o.MinPercent*float64(trialsPerTemp) && !improvedBest {
			frozen++
		} else {
			frozen = 0
		}
	}

	// Hand the stream cursor back before the deferred finish rewinds the
	// unconsumed tail.
	ws.pos = wpos
	if bestMark >= 0 {
		w.foldBest(log[bestMark:logN])
	}

	// Adopt the best state seen and rebalance it exactly. Only the best
	// sides are kept; SetSides rebuilds gains and cut in O(m) — once per
	// run, where a clone scheme pays O(n) per improvement.
	if err := b.SetSides(w.bestSides); err != nil {
		return st, err
	}
	partition.RepairBalance(b, partition.MinAchievableImbalance(g.TotalVertexWeight()))
	st.FinalCut = b.Cut()
	if obs != nil {
		ratio := 0.0
		if st.Trials > 0 {
			ratio = float64(st.Accepted) / float64(st.Trials)
		}
		obs.Observe(trace.Event{
			Type: trace.TypeRunDone, Algo: "sa", Index: st.Temperatures,
			Cut: st.FinalCut, BestCut: st.FinalCut, Imbalance: b.Imbalance(),
			Gain:   st.InitialCut - st.FinalCut,
			Trials: st.Trials, Accepted: st.Accepted,
			AcceptRatio: ratio, Temp: st.FinalTemp,
			ElapsedNS: time.Since(runStart).Nanoseconds(),
		})
	}
	return st, stopErr
}

// Run anneals from a fresh random balanced bisection of g.
func Run(g *graph.Graph, opts Options, r *rng.Rand) (*partition.Bisection, Stats, error) {
	b := partition.NewRandom(g, r)
	st, err := Refine(b, opts, r)
	return b, st, err
}

// calibrateStartTemp estimates the temperature at which the acceptance
// ratio of random moves from the current state is about InitProb: it
// samples uphill deltas and solves exp(−avgUp/T) = InitProb, then doubles
// T (a few times at most) until a sampled acceptance ratio reaches the
// target, mirroring JAMS's trial-run calibration.
//
// Calibration runs before every start — each of the N chains of a
// parallel campaign — so it gets the same treatment as the trial loop:
// delta sampling is pure (it never moves a vertex, so there is no state
// to clone or restore), reads the workspace's records, draws words
// through the same block-prefetching stream with the same open-coded
// Lemire/Float64 arithmetic as the trial loop, and decides acceptance
// through the memo, reset for each trial temperature. With a warm
// workspace it allocates nothing. The draw sequence (one Intn per
// sample, one Float64 per uphill sample) and every produced float are
// identical to the plain version in the test oracle.
func (w *Refiner) calibrateStartTemp(o Options, sideDiff int64, ws *wordStream) float64 {
	recs := w.recs
	n := len(recs)
	alpha := o.Alpha
	// Calibration never moves a vertex, so the hoisted d/d2 are fixed.
	d := float64(sideDiff)
	d2 := d * d
	un := uint64(n)
	unThresh := -un % un
	draw := func() vertexRec {
		for {
			word, ok := ws.tryNext()
			if !ok {
				word = ws.refill()
			}
			if hi, lo := bits.Mul64(word, un); lo >= unThresh {
				return recs[hi]
			}
		}
	}
	samples := min(64+4*n, 4096)
	var upSum float64
	var upCount int
	for i := 0; i < samples; i++ {
		if dE := deltaCost(d, d2, draw(), alpha); dE > 0 {
			upSum += dE
			upCount++
		}
	}
	if upCount == 0 {
		// All moves downhill (or flat): any modest temperature works.
		return 1.0
	}
	temp := (upSum / float64(upCount)) / math.Log(1/o.InitProb)
	for iter := 0; iter < 30; iter++ {
		w.memo.reset(temp)
		acc := 0
		for i := 0; i < samples; i++ {
			dE := deltaCost(d, d2, draw(), alpha)
			if dE <= 0 {
				acc++
				continue
			}
			word, ok := ws.tryNext()
			if !ok {
				word = ws.refill()
			}
			if float64(word>>11) < w.memo.threshold(dE) {
				acc++
			}
		}
		if float64(acc) >= o.InitProb*float64(samples) {
			break
		}
		temp *= 2
	}
	return temp
}
