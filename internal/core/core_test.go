package core

import (
	"testing"

	"repro/internal/anneal"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// fastSA keeps tests quick.
func fastSA() SA {
	return SA{Opts: anneal.Options{SizeFactor: 4, TempFactor: 0.9, FreezeLim: 3, MaxTemps: 150}}
}

// allBisectors returns every registry algorithm, with SA variants swapped
// to fast schedules.
func allBisectors() []Bisector {
	return []Bisector{
		Random{},
		KL{},
		fastSA(),
		Spectral{},
		Compacted{Inner: KL{}},
		Compacted{Inner: fastSA()},
		Multilevel{Inner: KL{}},
		Multilevel{Inner: fastSA()},
	}
}

func TestAllBisectorsProduceValidBalancedBisections(t *testing.T) {
	graphs := []*graph.Graph{
		mustGraph(gen.Cycle(24)),
		mustGraph(gen.Grid(6, 6)),
		mustGraph(gen.Ladder(12)),
		mustGraph(gen.CompleteBinaryTree(16)),
		mustGraph(gen.BReg(60, 4, 3, rng.NewFib(1))),
	}
	for _, alg := range allBisectors() {
		r := rng.NewFib(99)
		for gi, g := range graphs {
			b, err := alg.Bisect(g, r)
			if err != nil {
				t.Fatalf("%s on graph %d: %v", alg.Name(), gi, err)
			}
			if b.Graph() != g {
				t.Fatalf("%s returned bisection of wrong graph", alg.Name())
			}
			if b.Imbalance() > g.TotalVertexWeight()%2 {
				t.Fatalf("%s on graph %d: imbalance %d", alg.Name(), gi, b.Imbalance())
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("%s on graph %d: %v", alg.Name(), gi, err)
			}
		}
	}
}

// TestWeightedImbalanceWithinMaxVertexWeight holds every registry entry,
// at its registry options, to the Bisector contract on weighted input:
// the final weight imbalance is at most the largest vertex weight.
func TestWeightedImbalanceWithinMaxVertexWeight(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := weightedGNP(seed)
		for _, name := range Names() {
			alg, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := alg.Bisect(g, rng.NewFib(seed))
			if err != nil {
				t.Fatalf("%s on seed %d: %v", name, seed, err)
			}
			if imb, maxW := b.Imbalance(), int64(g.MaxVertexWeight()); imb > maxW {
				t.Errorf("%s on seed %d: imbalance %d exceeds the largest vertex weight %d", name, seed, imb, maxW)
			}
		}
	}
}

// weightedGNP returns Gnp(200, 0.02) with vertex weights uniform in
// {1, 2, 3}, both drawn from seed.
func weightedGNP(seed uint64) *graph.Graph {
	r := rng.NewFib(seed)
	u := mustGraph(gen.GNP(200, 0.02, r))
	bld := graph.NewBuilder(u.N())
	for v := int32(0); int(v) < u.N(); v++ {
		bld.SetVertexWeight(v, int32(1+r.Intn(3)))
	}
	u.Edges(func(a, b, w int32) { bld.AddWeightedEdge(a, b, w) })
	return mustGraph(bld.Build())
}

// TestKLRunDoneReportsReturnedBisection holds kl's run_done and
// kl.Run's Stats to the bisection KL returns: on weighted input the
// balance repair comes before both, so they describe the repaired cut.
func TestKLRunDoneReportsReturnedBisection(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := weightedGNP(seed)
		rec := trace.NewRecorder()
		b, err := WithObserver(KL{}, rec).Bisect(g, rng.NewFib(seed))
		if err != nil {
			t.Fatal(err)
		}
		var last trace.Event
		for _, e := range rec.Events() {
			if e.Type == trace.TypeRunDone && e.Algo == "kl" {
				last = e
			}
		}
		if last.Cut != b.Cut() || last.Imbalance != b.Imbalance() {
			t.Errorf("seed %d: kl run_done reads cut %d imbalance %d, KL returned cut %d imbalance %d",
				seed, last.Cut, last.Imbalance, b.Cut(), b.Imbalance())
		}
		if _, st, _ := kl.Run(g, kl.Options{}, rng.NewFib(seed)); st.FinalCut != b.Cut() {
			t.Errorf("seed %d: kl.Run's FinalCut %d, KL returned cut %d", seed, st.FinalCut, b.Cut())
		}
	}
}

func TestAllBisectorsCutMatchesSides(t *testing.T) {
	// Every bisector's reported Cut must agree with an independent
	// recount over its Sides — guards the whole incremental machinery.
	g := mustGraph(gen.BReg(80, 4, 3, rng.NewFib(41)))
	for _, alg := range allBisectors() {
		b, err := alg.Bisect(g, rng.NewFib(42))
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if got := partition.CutOf(g, b.Sides()); got != b.Cut() {
			t.Fatalf("%s: reported cut %d, recount %d", alg.Name(), b.Cut(), got)
		}
	}
}

func TestNamesAndNew(t *testing.T) {
	for _, name := range Names() {
		alg, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if alg.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, alg.Name())
		}
	}
	if _, err := New("does-not-exist"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestCompactedNames(t *testing.T) {
	if (Compacted{Inner: KL{}}).Name() != "ckl" {
		t.Fatal("ckl name")
	}
	if (Multilevel{Inner: SA{}}).Name() != "mlsa" {
		t.Fatal("mlsa name")
	}
	if (BestOf{Inner: KL{}, Starts: 2}).Name() != "kl×2" {
		t.Fatal("bestof name")
	}
}

func TestCompactedNilInner(t *testing.T) {
	g := mustGraph(gen.Cycle(8))
	if _, err := (Compacted{}).Bisect(g, rng.NewFib(1)); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := (Multilevel{}).Bisect(g, rng.NewFib(1)); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := (BestOf{}).Bisect(g, rng.NewFib(1)); err == nil {
		t.Fatal("nil inner accepted")
	}
}

func TestBestOfNeverWorseThanSingle(t *testing.T) {
	g := mustGraph(gen.BReg(100, 4, 3, rng.NewFib(2)))
	single, err := KL{}.Bisect(g, rng.NewFib(7))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := BestOf{Inner: KL{}, Starts: 4}.Bisect(g, rng.NewFib(7))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cut() > single.Cut() {
		t.Fatalf("best-of-4 cut %d worse than single %d (same stream prefix)", multi.Cut(), single.Cut())
	}
}

// TestBestOfReusesCallerWorkspace pins the workspace contract of the
// multi-start loop: a warm WithWorkspace(BestOf{KL, 4}) runs its four
// starts on the one workspace it was given, so a run allocates exactly
// what four warm single starts do, never a fresh workspace per call.
func TestBestOfReusesCallerWorkspace(t *testing.T) {
	g := mustGraph(gen.BReg(400, 8, 3, rng.NewFib(3)))
	r := rng.NewFib(5)
	single := WithWorkspace(KL{})
	multi := WithWorkspace(BestOf{Inner: KL{}, Starts: 4})
	for _, b := range []Bisector{single, multi} {
		if _, err := b.Bisect(g, r); err != nil { // warm the workspace
			t.Fatal(err)
		}
	}
	run := func(b Bisector) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := b.Bisect(g, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := run(single), run(multi); four != 4*one {
		t.Fatalf("warm best-of-4 allocates %v per run, want 4 × %v (one warm start)", four, one)
	}
}

func TestCKLBeatsKLOnLadders(t *testing.T) {
	// The paper's Table 1 claim, in miniature: averaged over seeds,
	// compacted KL must find cuts at least as small as plain KL on
	// ladders, and strictly better in aggregate.
	g := mustGraph(gen.Ladder(128))
	var klSum, cklSum int64
	const trials = 8
	for seed := uint64(0); seed < trials; seed++ {
		bkl, err := BestOf{Inner: KL{}, Starts: 2}.Bisect(g, rng.NewFib(seed))
		if err != nil {
			t.Fatal(err)
		}
		bckl, err := BestOf{Inner: Compacted{Inner: KL{}}, Starts: 2}.Bisect(g, rng.NewFib(seed))
		if err != nil {
			t.Fatal(err)
		}
		klSum += bkl.Cut()
		cklSum += bckl.Cut()
	}
	if cklSum > klSum {
		t.Fatalf("compaction hurt KL on ladders: CKL total %d vs KL total %d", cklSum, klSum)
	}
	t.Logf("ladder totals over %d seeds: KL=%d CKL=%d", trials, klSum, cklSum)
}

func TestCompactedReachesPlantedCutOnDegree4(t *testing.T) {
	// Observation 1/2 in miniature: on degree-4 BReg graphs the planted
	// bisection is found by CKL.
	r := rng.NewFib(21)
	g, err := gen.BReg(400, 8, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BestOf{Inner: Compacted{Inner: KL{}}, Starts: 2}.Bisect(g, r)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cut() > 8 {
		t.Fatalf("CKL cut %d missed planted width 8", b.Cut())
	}
}

func TestSpectralEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	if _, err := (Spectral{}).Bisect(g, rng.NewFib(1)); err != nil {
		t.Fatal(err)
	}
}

func TestMultilevelMatchesExactOnSmallGraphs(t *testing.T) {
	r := rng.NewFib(31)
	for trial := 0; trial < 10; trial++ {
		n := 2 * (4 + r.Intn(6))
		g, err := gen.GNP(n, 0.4, r)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := exact.BisectionWidth(g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BestOf{Inner: Multilevel{Inner: KL{}}, Starts: 4}.Bisect(g, r)
		if err != nil {
			t.Fatal(err)
		}
		if b.Cut() < opt {
			t.Fatalf("mlkl cut %d below optimum %d", b.Cut(), opt)
		}
		if b.Cut() > opt+1 {
			t.Fatalf("trial %d: mlkl best-of-4 cut %d far from optimum %d", trial, b.Cut(), opt)
		}
	}
}

// matching.HeavyEdge has coarsen.MatchFunc's signature, so the
// matching-policy ablation passes it to Compacted as it is.
func TestHeavyEdgeMatchAdapter(t *testing.T) {
	g := mustGraph(gen.Cycle(8))
	mate := matching.HeavyEdge(g, rng.NewFib(1))
	if len(mate) != 8 {
		t.Fatalf("mate length %d", len(mate))
	}
	b, err := (Compacted{Inner: KL{}, Match: matching.HeavyEdge}).Bisect(g, rng.NewFib(2))
	if err != nil {
		t.Fatal(err)
	}
	if b.Imbalance() != 0 {
		t.Fatalf("imbalance %d", b.Imbalance())
	}
}
