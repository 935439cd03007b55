package anneal

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// plainRefine is the test oracle for Refine: Figure 1 of the paper
// written the plain way. It draws through the rng.Rand methods, moves
// vertices with partition.Move, decides every uphill Metropolis trial
// with math.Exp, and clones the whole bisection each time the best cost
// improves. Refine's prefetched word stream, vertex records, acceptance
// memo, and bounded undo log must reproduce it exactly, so its final
// sides and Stats are the reference the fast path is pinned to. Control
// and Observer are not modelled.
func plainRefine(b *partition.Bisection, opts Options, r *rng.Rand) Stats {
	o := opts.withDefaults()
	g := b.Graph()
	n := g.N()
	st := Stats{InitialCut: b.Cut(), FinalCut: b.Cut()}
	if n == 0 {
		return st
	}
	metropolis := o.Acceptance != AcceptThreshold
	imbalance := func() float64 { return float64(b.SideWeight(0) - b.SideWeight(1)) }
	// delta is the cost change cut + α·d² of flipping v, in the
	// operation order Refine uses so the floats agree bit for bit.
	delta := func(v int32) float64 {
		d := imbalance()
		nd := d + 2*float64(g.VertexWeight(v))
		if b.Side(v) == 0 {
			nd = d - 2*float64(g.VertexWeight(v))
		}
		return -float64(b.Gain(v)) + float64(alpha*(float64(nd*nd)-float64(d*d)))
	}
	cost := func() float64 { d := imbalance(); return float64(b.Cut()) + float64(alpha*(d*d)) }

	// Start temperature: solve exp(−avgUp/T) = initProb over sampled
	// uphill moves, then double T until the sampled acceptance reaches it.
	samples := min(64+4*n, 4096)
	var upSum float64
	var upCount int
	for i := 0; i < samples; i++ {
		if dE := delta(int32(r.Intn(n))); dE > 0 {
			upSum += dE
			upCount++
		}
	}
	temp := 1.0
	if upCount > 0 {
		temp = (upSum / float64(upCount)) / math.Log(1/initProb)
		for iter := 0; iter < 30; iter++ {
			acc := 0
			for i := 0; i < samples; i++ {
				dE := delta(int32(r.Intn(n)))
				if dE <= 0 || r.Float64() < math.Exp(-dE/temp) {
					acc++
				}
			}
			if float64(acc) >= initProb*float64(samples) {
				break
			}
			temp *= 2
		}
	}
	st.StartTemp = temp

	best := b.Clone()
	bestCost := cost()
	trialsPerTemp := int64(o.SizeFactor) * int64(n)
	frozen := 0
	for t := 0; t < o.MaxTemps && frozen < o.FreezeLim; t++ {
		var accepted int64
		improvedBest := false
		cur := cost()
		for k := int64(0); k < trialsPerTemp; k++ {
			v := int32(r.Intn(n))
			dE := delta(v)
			accept := dE <= 0
			if !accept {
				if metropolis {
					accept = r.Float64() < math.Exp(-dE/temp)
				} else {
					accept = dE < temp
				}
			}
			if accept {
				b.Move(v)
				cur += dE
				accepted++
				if cur < bestCost {
					// Re-evaluate exactly: cur accumulates float error.
					c := cost()
					if c < bestCost {
						bestCost = c
						improvedBest = true
						best = b.Clone()
					}
					cur = c
				}
			}
		}
		st.Temperatures++
		st.Trials += trialsPerTemp
		st.Accepted += accepted
		st.FinalTemp = temp
		temp *= o.TempFactor
		if float64(accepted) < minPercent*float64(trialsPerTemp) && !improvedBest {
			frozen++
		} else {
			frozen = 0
		}
	}
	b.Assign(best)
	partition.RepairBalance(b)
	st.FinalCut = b.Cut()
	return st
}

// TestPlainOracleMatchesRefine runs the oracle and Refine from the same
// random state on graphs beyond the golden fixture's cases — weighted
// vertices under both acceptance rules — and requires identical sides
// and Stats.
func TestPlainOracleMatchesRefine(t *testing.T) {
	for _, c := range goldenCases() {
		checkOracle(t, c.Name, c.g, c.opts, c.seed)
	}
	wg := weightedTestGraph(t)
	checkOracle(t, "weighted", wg, Options{SizeFactor: 2, TempFactor: 0.8, FreezeLim: 2, MaxTemps: 30}, 100)
	checkOracle(t, "weighted", wg, Options{SizeFactor: 2, TempFactor: 0.8, FreezeLim: 2, MaxTemps: 30, Acceptance: AcceptThreshold}, 102)

	// At the default SizeFactor the hot temperatures accept several
	// times n moves each, past the undo log's 2n cap, so the log folds
	// its marked best into bestSides and restarts mid-temperature. The
	// temp_done events show that it does.
	rec := trace.NewRecorder()
	opts := Options{TempFactor: 0.8, FreezeLim: 2, MaxTemps: 30, Observer: rec}
	checkOracle(t, "log-overflow", wg, opts, 200)
	var maxAccepted int64
	for _, e := range rec.Events() {
		if e.Type == trace.TypeTempDone {
			maxAccepted = max(maxAccepted, e.Accepted)
		}
	}
	if maxAccepted <= int64(2*wg.N()) {
		t.Fatalf("log-overflow case accepted at most %d moves in a temperature, want more than the log's %d", maxAccepted, 2*wg.N())
	}
}

func checkOracle(t *testing.T, name string, g *graph.Graph, opts Options, seed uint64) {
	t.Helper()
	r := rng.NewFib(seed)
	want := partition.NewRandom(g, r)
	wantSt := plainRefine(want, opts, r)
	got, gotSt, err := Run(g, opts, rng.NewFib(seed))
	if err != nil {
		t.Fatal(err)
	}
	if gotSt != wantSt {
		t.Fatalf("%s %+v: stats %+v, oracle %+v", name, opts, gotSt, wantSt)
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if got.Side(v) != want.Side(v) {
			t.Fatalf("%s %+v: side of vertex %d differs from the oracle", name, opts, v)
		}
	}
}

// weightedTestGraph is a random 150-vertex graph with vertex weights in
// [1,4] and edge weights in [1,3].
func weightedTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	r := rng.NewFib(31)
	const n = 150
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		b.SetVertexWeight(v, int32(1+r.Intn(4)))
	}
	for i := 0; i < 3*n; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			b.AddWeightedEdge(u, v, int32(1+r.Intn(3)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
