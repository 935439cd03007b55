package anneal

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// fastOpts keeps unit tests quick while preserving the schedule shape.
func fastOpts() Options {
	return Options{SizeFactor: 4, TempFactor: 0.9, FreezeLim: 3, MaxTemps: 200}
}

func TestRunReturnsBalancedBisection(t *testing.T) {
	r := rng.NewFib(1)
	g, err := gen.BReg(100, 4, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	b, st, err := Run(g, fastOpts(), r)
	if err != nil {
		t.Fatal(err)
	}
	if b.Imbalance() != 0 {
		t.Fatalf("imbalance %d", b.Imbalance())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.Temperatures == 0 || st.Trials == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.FinalCut != b.Cut() {
		t.Fatalf("stats cut %d != bisection cut %d", st.FinalCut, b.Cut())
	}
	if st.StartTemp <= st.FinalTemp*0.99 {
		t.Fatalf("temperature did not cool: %g -> %g", st.StartTemp, st.FinalTemp)
	}
}

// TestAnnealMatchesGenericSchema is experiment F1 from DESIGN.md: the
// implementation must exhibit the structure of the paper's Figure 1 —
// start hot (high acceptance), cool geometrically, and freeze (low
// acceptance) at the end.
func TestAnnealMatchesGenericSchema(t *testing.T) {
	r := rng.NewFib(7)
	g, err := gen.BReg(200, 8, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, r)
	st, err := Refine(b, fastOpts(), r)
	if err != nil {
		t.Fatal(err)
	}
	// The overall acceptance ratio must be strictly between the frozen
	// threshold and 1: it starts near initProb and ends near 0.
	ratio := float64(st.Accepted) / float64(st.Trials)
	if ratio <= 0 || ratio >= 0.9 {
		t.Fatalf("overall acceptance ratio %.3f implausible for an annealing run", ratio)
	}
	// Geometric cooling: final temp = start * TempFactor^(temps-1).
	want := float64(st.StartTemp * math.Pow(0.9, float64(st.Temperatures-1)))
	if math.Abs(want-st.FinalTemp)/want > 1e-9 {
		t.Fatalf("cooling not geometric: final %g, want %g", st.FinalTemp, want)
	}
}

func TestAnnealImprovesOverRandom(t *testing.T) {
	r := rng.NewFib(3)
	g, err := gen.BReg(300, 4, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	randomCut := partition.NewRandom(g, r).Cut()
	b, _, err := Run(g, fastOpts(), r)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cut() >= randomCut {
		t.Fatalf("SA cut %d no better than random %d", b.Cut(), randomCut)
	}
	// Random cut of a 4-regular graph is ~m/2 = 300; planted is 4. Even a
	// fast schedule should get well under half the random cut.
	if b.Cut() > randomCut/2 {
		t.Fatalf("SA cut %d > half the random cut %d", b.Cut(), randomCut)
	}
}

func TestAnnealFindsOptimumOnSmallGraphs(t *testing.T) {
	r := rng.NewFib(11)
	for trial := 0; trial < 8; trial++ {
		n := 2 * (3 + r.Intn(3))
		g, err := gen.GNP(n, 0.5, r)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := exact.BisectionWidth(g)
		if err != nil {
			t.Fatal(err)
		}
		best := int64(1) << 62
		for s := 0; s < 6; s++ {
			// Full-strength default schedule: on 6–10 vertex graphs it is
			// still fast, and reliably reaches the optimum.
			b, _, err := Run(g, Options{}, r)
			if err != nil {
				t.Fatal(err)
			}
			if b.Cut() < best {
				best = b.Cut()
			}
		}
		if best < opt {
			t.Fatalf("trial %d: SA cut %d below optimum %d", trial, best, opt)
		}
		if best > opt {
			t.Fatalf("trial %d (n=%d): SA best-of-6 %d missed optimum %d on a tiny dense graph", trial, n, best, opt)
		}
	}
}

func TestAnnealEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustBuild()
	b, st, err := Run(g, Options{}, rng.NewFib(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Cut() != 0 || st.Temperatures != 0 {
		t.Fatalf("empty graph: cut=%d temps=%d", b.Cut(), st.Temperatures)
	}
}

func TestAnnealEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(10).MustBuild()
	b, _, err := Run(g, fastOpts(), rng.NewFib(2))
	if err != nil {
		t.Fatal(err)
	}
	if b.Cut() != 0 || b.Imbalance() != 0 {
		t.Fatalf("edgeless: cut=%d imbalance=%d", b.Cut(), b.Imbalance())
	}
}

func TestAnnealDeterministicGivenSeed(t *testing.T) {
	g := mustGraph(gen.Grid(8, 8))
	b1, st1, err := Run(g, fastOpts(), rng.NewFib(9))
	if err != nil {
		t.Fatal(err)
	}
	b2, st2, err := Run(g, fastOpts(), rng.NewFib(9))
	if err != nil {
		t.Fatal(err)
	}
	if b1.Cut() != b2.Cut() || st1.Trials != st2.Trials || st1.Temperatures != st2.Temperatures {
		t.Fatalf("same seed diverged: cuts %d/%d, trials %d/%d", b1.Cut(), b2.Cut(), st1.Trials, st2.Trials)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.SizeFactor != 16 || o.TempFactor != 0.95 || o.FreezeLim != 5 || o.MaxTemps != 2000 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	// Invalid values also fall back.
	o2 := Options{SizeFactor: -1, TempFactor: 1.5}.withDefaults()
	if o2.SizeFactor != 16 || o2.TempFactor != 0.95 {
		t.Fatalf("invalid values not defaulted: %+v", o2)
	}
}

func TestBestTrackingSurvivesMigration(t *testing.T) {
	// The paper: "simulated annealing may migrate away from an optimal
	// solution... one must then save the best bisection found". With a
	// hot, long schedule on a tiny graph the walk certainly visits the
	// optimum and certainly leaves it; the returned cut must still be
	// optimal.
	g := mustGraph(gen.CycleCollection([]int{4, 4}))
	r := rng.NewFib(4)
	b, _, err := Run(g, Options{SizeFactor: 8, TempFactor: 0.8, MaxTemps: 100, FreezeLim: 3}, r)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cut() != 0 {
		t.Fatalf("cut %d, want 0 (two whole cycles per side)", b.Cut())
	}
}

func TestThresholdAccepting(t *testing.T) {
	r := rng.NewFib(15)
	g, err := gen.BReg(200, 8, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.Acceptance = AcceptThreshold
	b, st, err := Run(g, opts, r)
	if err != nil {
		t.Fatal(err)
	}
	if b.Imbalance() != 0 {
		t.Fatalf("imbalance %d", b.Imbalance())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Threshold accepting must still anneal: improve hugely over random.
	random := partition.NewRandom(g, r).Cut()
	if b.Cut() >= random {
		t.Fatalf("threshold accepting cut %d no better than random %d", b.Cut(), random)
	}
	if st.Accepted == 0 || st.Accepted == st.Trials {
		t.Fatalf("degenerate acceptance %d/%d", st.Accepted, st.Trials)
	}
}

func TestAcceptanceRulesDiffer(t *testing.T) {
	g := mustGraph(gen.Grid(10, 10))
	m := fastOpts()
	th := fastOpts()
	th.Acceptance = AcceptThreshold
	_, stM, err := Run(g, m, rng.NewFib(21))
	if err != nil {
		t.Fatal(err)
	}
	_, stT, err := Run(g, th, rng.NewFib(21))
	if err != nil {
		t.Fatal(err)
	}
	if stM.Accepted == stT.Accepted && stM.Trials == stT.Trials {
		t.Log("identical acceptance counts across rules; suspicious but possible — checking trials differ at least")
	}
	// Both must have cooled.
	if stM.Temperatures == 0 || stT.Temperatures == 0 {
		t.Fatal("no temperatures executed")
	}
}

func TestStartTemperatureCalibration(t *testing.T) {
	// The calibrated start temperature must accept roughly initProb of
	// random moves from the initial state (the JAMS calibration target).
	// We measure the first temperature's acceptance ratio with a schedule
	// that freezes immediately afterwards.
	r := rng.NewFib(33)
	g, err := gen.BReg(400, 8, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, r)
	st, err := Refine(b, Options{SizeFactor: 8, MaxTemps: 1, FreezeLim: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(st.Accepted) / float64(st.Trials)
	// The calibration doubles T until the sampled acceptance reaches the
	// target, so the realized ratio is at least ~initProb (minus sampling
	// noise) and usually well above; it must not be near zero or one.
	if ratio < 0.3 || ratio > 0.98 {
		t.Fatalf("first-temperature acceptance %.3f far from initProb %v", ratio, initProb)
	}
}

func TestStatsString(t *testing.T) {
	if (Stats{}).String() == "" {
		t.Fatal("empty Stats string")
	}
}

func BenchmarkAnnealBReg500D3(b *testing.B) {
	r := rng.NewFib(1)
	g, err := gen.BReg(500, 8, 3, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(g, fastOpts(), r); err != nil {
			b.Fatal(err)
		}
	}
}
