package main

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/spectral"
)

// spectralLanczosOpts is the scale-row solver configuration. The Lanczos
// basis is sized so the planted instance converges without a restart.
func spectralLanczosOpts() spectral.Options {
	return spectral.Options{MaxBasis: 48, MaxIters: 20_000}
}

// addSpectralScaleRows registers the -scale Fiedler-solver rows. Metric
// is the matvec count of the fixed-seed solve — the unit BENCH_8 states
// its solver comparison in, deterministic across hosts.
//
// Two instances:
//
//   - A planted-bisection BReg instance (cut n/10, degree 4), where the
//     solver converges without a restart.
//   - A fixed 500×200 grid, the small-spectral-gap regime, where Lanczos
//     must grind to the true Fiedler vector; the capture errors if its
//     split stops being the optimal 200-edge one.
//
// The _t1 row runs the Lanczos solve on the BReg instance on a warm
// workspace; the solver is serial, and the row keeps the _t1 name of
// the earlier thread series.
func addSpectralScaleRows(add func(name string, metric float64, fn func(b *testing.B)), scaleN int) error {
	if scaleN < 10_000 {
		return nil // planted structure too small to be meaningful
	}
	sfx := scaleSuffix(scaleN)
	bn := scaleN &^ 1 // BReg needs an even vertex count
	g, err := gen.BReg(bn, bn/10, 4, rng.NewFib(42))
	if err != nil {
		return err
	}

	var sl spectral.Stats
	lo := spectralLanczosOpts()
	lo.Stats = &sl
	if _, err := spectral.Bisect(g, lo, rng.NewFib(7)); err != nil {
		return fmt.Errorf("lanczos setup solve: %w", err)
	}
	add("scale_spectral_lanczos_breg"+sfx, float64(sl.MatVecs), solverRowOn(g, spectralLanczosOpts()))
	add("scale_spectral_fiedler_breg"+sfx+"_t1", float64(sl.MatVecs), solverRowOn(g, spectralLanczosOpts()))

	gr, err := gen.Grid(500, 200)
	if err != nil {
		return err
	}
	var gl spectral.Stats
	glo := spectral.Options{MaxIters: 20_000, Stats: &gl}
	blg, err := spectral.Bisect(gr, glo, rng.NewFib(7))
	if err != nil {
		return fmt.Errorf("lanczos grid setup solve: %w", err)
	}
	if blg.Cut() != 200 {
		return fmt.Errorf("lanczos grid split cut %d, want the optimal 200", blg.Cut())
	}
	add("scale_spectral_lanczos_grid500x200", float64(gl.MatVecs), solverRowOn(gr, spectral.Options{MaxIters: 20_000}))
	return nil
}

// solverRowOn times warm Fiedler solves of g under opts.
func solverRowOn(g *graph.Graph, opts spectral.Options) func(b *testing.B) {
	return func(b *testing.B) {
		w := spectral.NewWorkspace()
		o := opts
		o.Workspace = w
		r := rng.NewFib(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := spectral.Fiedler(g, o, r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
