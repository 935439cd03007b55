package bisect_test

// One benchmark per paper artifact (tables TL/TG/TB/T1, the 𝒢2set/𝒢np/
// 𝒢breg appendix tables at both sizes, figures F1/F2, observations O1–O5)
// plus the five design-choice ablations from DESIGN.md §6.
//
// Benchmarks default to reduced graph sizes so `go test -bench=.`
// finishes in minutes; set BISECT_BENCH_SCALE=paper to run the appendix
// sizes (2000/5000 vertices — budget an hour, dominated by SA), or use
// cmd/experiments for a progress-reporting paper-scale run. Reported
// metrics: mean best-of-2 cut per algorithm (cut_*), and the mean
// compaction improvement (impr_*%).

import (
	"os"
	"testing"

	bisect "repro"
	"repro/internal/anneal"
	"repro/internal/harness"
	"repro/internal/kl"
	"repro/internal/partition"
	"repro/internal/rng"
)

// benchSizes returns the stand-ins for the paper's 2000- and 5000-vertex
// suites.
func benchSizes() (size2000, size5000 int) {
	if os.Getenv("BISECT_BENCH_SCALE") == "paper" {
		return 2000, 5000
	}
	return 400, 1000
}

func benchSA() anneal.Options {
	if os.Getenv("BISECT_BENCH_SCALE") == "paper" {
		return anneal.Options{} // full JAMS schedule
	}
	return anneal.Options{SizeFactor: 4, TempFactor: 0.9, FreezeLim: 3, MaxTemps: 300}
}

func benchConfig() harness.Config {
	return harness.Config{Seed: 1989, Starts: 2, SAOpts: benchSA()}
}

// runTable executes the table once per benchmark iteration and reports
// the per-algorithm mean cuts and compaction improvements from the first
// iteration.
func runTable(b *testing.B, t harness.Table) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(t, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, name := range res.Algorithms {
				b.ReportMetric(res.MeanCut(name), "cut_"+name)
			}
			for _, inner := range []string{"sa", "kl"} {
				b.ReportMetric(res.MeanImprovement(inner), "impr_"+inner+"%")
			}
		}
	}
}

// ---- Special-graph tables -------------------------------------------------

func BenchmarkTableLadder(b *testing.B) {
	runTable(b, harness.LadderTable([]int{34, 100}))
}

func BenchmarkTableGrid(b *testing.B) {
	runTable(b, harness.GridTable([]int{10, 22}))
}

func BenchmarkTableBinaryTree(b *testing.B) {
	runTable(b, harness.BTreeTable([]int{100, 254}))
}

// BenchmarkTableSpecialSummary regenerates Table 1: the mean compaction
// improvement per special family for KL and SA.
func BenchmarkTableSpecialSummary(b *testing.B) {
	cfg := benchConfig()
	tables := []harness.Table{
		harness.GridTable([]int{10, 22}),
		harness.LadderTable([]int{34, 100}),
		harness.BTreeTable([]int{100, 254}),
	}
	for i := 0; i < b.N; i++ {
		for ti, t := range tables {
			res, err := harness.Run(t, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.MeanImprovement("kl"), "imprKL_"+t.ID+"%")
				b.ReportMetric(res.MeanImprovement("sa"), "imprSA_"+t.ID+"%")
			}
			_ = ti
		}
	}
}

// ---- 𝒢2set tables ----------------------------------------------------------

func bench2Set(b *testing.B, size int, deg float64) {
	runTable(b, harness.TwoSetTable(size, deg, []int{8, 32}))
}

func BenchmarkTable2Set2000Deg25(b *testing.B) { s, _ := benchSizes(); bench2Set(b, s, 2.5) }
func BenchmarkTable2Set2000Deg30(b *testing.B) { s, _ := benchSizes(); bench2Set(b, s, 3.0) }
func BenchmarkTable2Set2000Deg35(b *testing.B) { s, _ := benchSizes(); bench2Set(b, s, 3.5) }
func BenchmarkTable2Set2000Deg40(b *testing.B) { s, _ := benchSizes(); bench2Set(b, s, 4.0) }
func BenchmarkTable2Set5000Deg25(b *testing.B) { _, s := benchSizes(); bench2Set(b, s, 2.5) }
func BenchmarkTable2Set5000Deg30(b *testing.B) { _, s := benchSizes(); bench2Set(b, s, 3.0) }
func BenchmarkTable2Set5000Deg35(b *testing.B) { _, s := benchSizes(); bench2Set(b, s, 3.5) }
func BenchmarkTable2Set5000Deg40(b *testing.B) { _, s := benchSizes(); bench2Set(b, s, 4.0) }

// ---- 𝒢np tables -------------------------------------------------------------

func BenchmarkTableGnp2000(b *testing.B) {
	s, _ := benchSizes()
	runTable(b, harness.GnpTable(s, []float64{2.5, 4.0}, 2))
}

func BenchmarkTableGnp5000(b *testing.B) {
	_, s := benchSizes()
	runTable(b, harness.GnpTable(s, []float64{2.5, 4.0}, 2))
}

// ---- 𝒢breg tables -----------------------------------------------------------

func benchBReg(b *testing.B, size, d int) {
	runTable(b, harness.BRegTable(size, d, []int{2, 16}, 2))
}

func BenchmarkTableBreg2000D3(b *testing.B) { s, _ := benchSizes(); benchBReg(b, s, 3) }
func BenchmarkTableBreg2000D4(b *testing.B) { s, _ := benchSizes(); benchBReg(b, s, 4) }
func BenchmarkTableBreg5000D3(b *testing.B) { _, s := benchSizes(); benchBReg(b, s, 3) }
func BenchmarkTableBreg5000D4(b *testing.B) { _, s := benchSizes(); benchBReg(b, s, 4) }

// ---- Figures ----------------------------------------------------------------

// BenchmarkFigure1SAGeneric times one run of the generic SA algorithm of
// Figure 1 (a single annealing run, no restarts).
func BenchmarkFigure1SAGeneric(b *testing.B) {
	s, _ := benchSizes()
	g, err := bisect.BReg(s, 8, 3, bisect.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	alg := bisect.SA{Opts: benchSA()}
	r := bisect.NewRand(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Bisect(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2KLPass times one KL pass (Figure 2) from a random
// bisection.
func BenchmarkFigure2KLPass(b *testing.B) {
	_, s := benchSizes()
	g, err := bisect.BReg(s, 8, 3, bisect.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewFib(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bis := partition.NewRandom(g, r)
		b.StartTimer()
		if _, _, _, err := kl.Pass(bis, kl.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Observations -----------------------------------------------------------

func BenchmarkObservation1(b *testing.B) {
	_, s := benchSizes()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d3, err := harness.Run(harness.BRegTable(s, 3, []int{8}, 2), cfg)
		if err != nil {
			b.Fatal(err)
		}
		d4, err := harness.Run(harness.BRegTable(s, 4, []int{8}, 2), cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := harness.Observation1(d3, d4)
		if i == 0 {
			b.ReportMetric(boolMetric(f.Holds), "holds")
			b.Logf("%s", f)
		}
	}
}

func BenchmarkObservation2(b *testing.B) {
	_, s := benchSizes()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		d3, err := harness.Run(harness.BRegTable(s, 3, []int{2, 8}, 2), cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := harness.Observation2(d3)
		if i == 0 {
			b.ReportMetric(boolMetric(f.Holds), "holds")
			b.Logf("%s", f)
		}
	}
}

func BenchmarkObservation4(b *testing.B) {
	s, _ := benchSizes()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		random, err := harness.Run(harness.BRegTable(s, 3, []int{8}, 2), cfg)
		if err != nil {
			b.Fatal(err)
		}
		trees, err := harness.Run(harness.BTreeTable([]int{254}), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ladders, err := harness.Run(harness.LadderTable([]int{100}), cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := harness.Observation4([]*harness.TableResult{random}, trees, ladders)
		if i == 0 {
			b.ReportMetric(boolMetric(f.Holds), "holds")
			b.Logf("%s", f)
		}
	}
}

func BenchmarkObservation5(b *testing.B) {
	s, _ := benchSizes()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		random, err := harness.Run(harness.BRegTable(s, 3, []int{8}, 2), cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := harness.Observation5([]*harness.TableResult{random})
		if i == 0 {
			b.ReportMetric(boolMetric(f.Holds), "holds")
			b.Logf("%s", f)
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// ---- Ablations (DESIGN.md §6) -------------------------------------------------

// BenchmarkAblationMatching compares compaction built on uniform-random
// vs heavy-edge matchings.
func BenchmarkAblationMatching(b *testing.B) {
	_, s := benchSizes()
	g, err := bisect.BReg(s, 8, 3, bisect.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		alg  bisect.Bisector
	}{
		{"random-matching", bisect.Compacted{Inner: bisect.KL{}}},
		{"heavy-edge", bisect.Compacted{Inner: bisect.KL{}, Match: bisect.HeavyEdgeMatching}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			r := bisect.NewRand(4)
			var last int64
			for i := 0; i < b.N; i++ {
				bb, err := v.alg.Bisect(g, r)
				if err != nil {
					b.Fatal(err)
				}
				last = bb.Cut()
			}
			b.ReportMetric(float64(last), "cut")
		})
	}
}

// BenchmarkAblationMultilevel compares one-shot compaction (the paper)
// against recursive multilevel compaction (the extension).
func BenchmarkAblationMultilevel(b *testing.B) {
	_, s := benchSizes()
	g, err := bisect.BReg(s, 8, 3, bisect.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		alg  bisect.Bisector
	}{
		{"compact-once", bisect.Compacted{Inner: bisect.KL{}}},
		{"multilevel", bisect.Multilevel{Inner: bisect.KL{}}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			r := bisect.NewRand(6)
			var last int64
			for i := 0; i < b.N; i++ {
				bb, err := v.alg.Bisect(g, r)
				if err != nil {
					b.Fatal(err)
				}
				last = bb.Cut()
			}
			b.ReportMetric(float64(last), "cut")
		})
	}
}

// BenchmarkAblationKLScan compares the KL pair-scan early termination
// on and off: the default pruned scan and the unpruned full scan
// (DisablePruning). Both select identical pairs, so only the time may
// differ; the cuts are cross-checked on every run (and, more
// thoroughly, by TestScanVariantsIdentical in internal/kl).
func BenchmarkAblationKLScan(b *testing.B) {
	g, err := bisect.BReg(400, 8, 3, bisect.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	refCut := int64(-1)
	for _, v := range []struct {
		name string
		opts bisect.KLOptions
	}{
		{"pruned-scratch", bisect.KLOptions{}},
		{"full-scan", bisect.KLOptions{DisablePruning: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			r := bisect.NewRand(8)
			var cut, scanned int64
			for i := 0; i < b.N; i++ {
				bb, st, err := bisect.RunKL(g, v.opts, r)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					cut, scanned = bb.Cut(), st.ScannedPairs
				}
			}
			b.ReportMetric(float64(cut), "cut")
			b.ReportMetric(float64(scanned), "scanned")
			// Identical-results cross-check: every variant's first run
			// starts from the same stream state, so cuts must agree.
			if refCut == -1 {
				refCut = cut
			} else if cut != refCut {
				b.Fatalf("%s: cut %d differs from reference %d", v.name, cut, refCut)
			}
		})
	}
}

// BenchmarkAblationSASchedule sweeps SIZEFACTOR to show the time/quality
// trade-off of the annealing schedule.
func BenchmarkAblationSASchedule(b *testing.B) {
	g, err := bisect.BReg(400, 8, 3, bisect.NewRand(9))
	if err != nil {
		b.Fatal(err)
	}
	for _, sf := range []int{1, 4, 16} {
		b.Run("sizefactor-"+string(rune('0'+sf/10))+string(rune('0'+sf%10)), func(b *testing.B) {
			alg := bisect.SA{Opts: bisect.SAOptions{SizeFactor: sf, TempFactor: 0.9, FreezeLim: 3, MaxTemps: 300}}
			r := bisect.NewRand(10)
			var last int64
			for i := 0; i < b.N; i++ {
				bb, err := alg.Bisect(g, r)
				if err != nil {
					b.Fatal(err)
				}
				last = bb.Cut()
			}
			b.ReportMetric(float64(last), "cut")
		})
	}
}

// BenchmarkAblationAcceptance compares Metropolis acceptance (Figure 1)
// with deterministic threshold accepting at the same schedule.
func BenchmarkAblationAcceptance(b *testing.B) {
	_, s := benchSizes()
	g, err := bisect.BReg(s, 8, 3, bisect.NewRand(13))
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		rule anneal.AcceptanceRule
	}{{"metropolis", anneal.AcceptMetropolis}, {"threshold", anneal.AcceptThreshold}} {
		b.Run(v.name, func(b *testing.B) {
			opts := benchSA()
			opts.Acceptance = v.rule
			alg := bisect.SA{Opts: opts}
			r := bisect.NewRand(14)
			var last int64
			for i := 0; i < b.N; i++ {
				bb, err := alg.Bisect(g, r)
				if err != nil {
					b.Fatal(err)
				}
				last = bb.Cut()
			}
			b.ReportMetric(float64(last), "cut")
		})
	}
}

// BenchmarkAblationRepair compares gain-aware balance repair (used after
// projection) with arbitrary-vertex repair.
func BenchmarkAblationRepair(b *testing.B) {
	_, s := benchSizes()
	g, err := bisect.BReg(s, 8, 3, bisect.NewRand(11))
	if err != nil {
		b.Fatal(err)
	}
	makeUnbalanced := func(r *bisect.Rand) *bisect.Bisection {
		side := make([]uint8, g.N())
		for v := 0; v < g.N()/4; v++ {
			side[v] = 1
		}
		bb, err := bisect.NewBisection(g, side)
		if err != nil {
			b.Fatal(err)
		}
		return bb
	}
	b.Run("gain-aware", func(b *testing.B) {
		r := bisect.NewRand(12)
		var last int64
		for i := 0; i < b.N; i++ {
			bb := makeUnbalanced(r)
			bisect.RepairBalance(bb, 0)
			last = bb.Cut()
		}
		b.ReportMetric(float64(last), "cut")
	})
	b.Run("arbitrary", func(b *testing.B) {
		r := bisect.NewRand(12)
		var last int64
		for i := 0; i < b.N; i++ {
			bb := makeUnbalanced(r)
			// Naive repair: move random heavy-side vertices.
			for bb.Imbalance() > 0 {
				heavy := uint8(0)
				if bb.SideWeight(1) > bb.SideWeight(0) {
					heavy = 1
				}
				for {
					v := int32(r.Intn(g.N()))
					if bb.Side(v) == heavy {
						bb.Move(v)
						break
					}
				}
			}
			last = bb.Cut()
		}
		b.ReportMetric(float64(last), "cut")
	})
}
