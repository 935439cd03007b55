package anneal

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestRefineSteadyStateZeroAlloc locks in the workspace contract: once a
// Refiner has seen a graph, an entire annealing run — start-temperature
// calibration, every temperature's trial loop, undo-log best tracking,
// and the final SetSides/RepairBalance materialization — allocates
// nothing at all.
func TestRefineSteadyStateZeroAlloc(t *testing.T) {
	r := rng.NewFib(21)
	g, err := gen.GNP(300, 4.0/299, r)
	if err != nil {
		t.Fatal(err)
	}
	b := partition.NewRandom(g, r)
	opts := Options{SizeFactor: 2, TempFactor: 0.8, FreezeLim: 1, MaxTemps: 4}
	w := NewRefiner()
	if _, err := w.Refine(b, opts, rng.NewFib(3)); err != nil {
		t.Fatal(err) // warm-up sizes the workspace
	}
	runRNG := rng.NewFib(4)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := w.Refine(b, opts, runRNG); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SA run allocated %.1f times per run, want 0", allocs)
	}
}

// TestAcceptMemoExact pins the acceptance memo to the naive Metropolis
// decision: for every (ΔE, T) it is driven with, fw < threshold(ΔE, T)
// must equal u < math.Exp(−ΔE/T) for u = fw/2⁵³ — the trial loop's
// exact test. The inputs cover two ΔE values colliding in one slot, one
// ΔE at two temperatures, ΔE/T past exp's underflow (threshold 0),
// subnormal thresholds, T underflowed to 0 (ΔE/T = +Inf), the empty-slot
// key (a NaN no finite ΔE has), and a sweep over a small ΔE set under
// changing temperatures, the pattern the trial loop produces.
func TestAcceptMemoExact(t *testing.T) {
	var m acceptMemo
	r := rng.NewFib(99)
	// check compares the memo, at the temperature of its last reset,
	// with the naive test on draws at and around the decision boundary
	// and on random draws.
	check := func(what string, dE float64) {
		t.Helper()
		temp := m.temp
		edge := math.Floor(math.Exp(-dE/temp) * (1 << 53))
		fws := []float64{0, 1, edge - 1, edge, edge + 1, (1 << 53) - 1}
		for i := 0; i < 4; i++ {
			fws = append(fws, float64(r.Uint64()>>11))
		}
		for _, fw := range fws {
			if fw < 0 || fw >= 1<<53 {
				continue
			}
			want := fw/(1<<53) < math.Exp(-dE/temp)
			if got := fw < m.threshold(dE); got != want {
				t.Fatalf("%s: ΔE=%v T=%v fw=%v: memo says %v, naive says %v", what, dE, temp, fw, got, want)
			}
		}
	}
	slot := func(dE float64) uint64 { return (math.Float64bits(dE) * 0x9E3779B97F4A7C15) >> (64 - memoBits) }

	// Two ΔE values sharing a slot evict each other; each lookup must
	// still see its own threshold.
	m.reset(0.7)
	a := 1.25
	b := math.Nextafter(a, 2)
	for slot(b) != slot(a) {
		b = math.Nextafter(b, 2)
	}
	for i := 0; i < 3; i++ {
		check("collision a", a)
		check("collision b", b)
	}

	// One ΔE at two temperatures, with the reset the trial loop makes
	// between them.
	m.reset(3)
	check("first temperature", 2.5)
	m.reset(0.05)
	check("second temperature", 2.5)

	// exp underflows to 0 past ΔE/T ≈ 745: nothing is accepted, not
	// even fw = 0.
	m.reset(1)
	check("underflow", 800)
	if thr := m.threshold(800); thr != 0 {
		t.Fatalf("threshold past underflow = %v, want 0", thr)
	}

	// Subnormal exp(−ΔE/T): only fw = 0 is accepted.
	for _, x := range []float64{709, 720, 740, 744.4} {
		if e := math.Exp(-x); e == 0 || e >= 0x1p-1022 {
			t.Fatalf("exp(−%v) = %v is not subnormal", x, e)
		}
		check("subnormal", x)
	}

	// A temperature that underflowed to 0 makes ΔE/T = +Inf.
	m.reset(0)
	check("zero temperature", 3)

	// A fresh memo holds only empty slots: the empty key itself decides
	// as the naive test does for a NaN ΔE (reject), and every finite ΔE
	// misses and gets its exact threshold.
	m.reset(2)
	check("empty-slot key", math.Float64frombits(memoEmpty))
	for i := 0; i < 2*memoSize; i++ {
		check("fresh slot", 0.001+float64(float64(i)*0.37))
	}

	// The trial loop's pattern: a small set of ΔE values, many repeats,
	// the temperature changing (with its reset) every few thousand trials.
	temp := 8.0
	for k := 0; k < 100000; k++ {
		if k%5000 == 0 {
			temp *= 0.8
			m.reset(temp)
		}
		check("sweep", float64(1+r.Intn(6))+float64(0.05*float64(r.Intn(40))))
	}
}
