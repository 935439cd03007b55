package main

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hfm"
	"repro/internal/kway"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/spectral"
)

// kwayRun measures recursive-bisection k-way partitioning end to end
// (k−1 splits, each a full KL run on an induced subgraph, sharing one
// workspace through the kway.Options default). Metric is the k-way edge
// cut of the fixed-seed run.
func kwayRun(g *graph.Graph, k int) (float64, func(b *testing.B), error) {
	p, err := kway.Recursive(g, k, core.KL{}, rng.NewFib(7))
	if err != nil {
		return 0, nil, err
	}
	metric := float64(p.EdgeCut())
	return metric, func(b *testing.B) {
		r := rng.NewFib(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := kway.Recursive(g, k, core.KL{}, r); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// hfmRun measures full hypergraph-FM runs (random area-balanced start,
// passes to fixpoint) on one shared workspace — the steady state of a
// multi-start campaign over a fixed netlist. Metric is the cut-net
// count of the fixed-seed run.
func hfmRun(nl *netlist.Netlist) (float64, func(b *testing.B), error) {
	w := hfm.NewWorkspace()
	res, err := hfm.Bisect(nl, hfm.Options{Workspace: w}, rng.NewFib(7))
	if err != nil {
		return 0, nil, err
	}
	return float64(res.CutNets), func(b *testing.B) {
		r := rng.NewFib(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := hfm.Bisect(nl, hfm.Options{Workspace: w}, r); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// benchNetlist is the fixed synthetic netlist instance behind the hfm
// rows: 400 cells to match the graph families' reduced scale.
func benchNetlist() (*netlist.Netlist, error) {
	return netlist.Random(netlist.RandomOptions{
		Cells: 400, Nets: 600, MaxPins: 5, MaxArea: 3, Locality: 0.5,
	}, rng.NewFib(42))
}

// spectralSolverOpts are the scale-row solver configurations. The
// Lanczos basis is sized so the planted instance converges without a
// restart; the power budget is far above what its own iterate-change
// criterion needs on the same instance.
func spectralLanczosOpts() spectral.Options {
	return spectral.Options{MaxBasis: 48, MaxIters: 20_000}
}

func spectralPowerOpts() spectral.Options {
	return spectral.Options{DisableLanczos: true, MaxIters: 100_000}
}

// addSpectralScaleRows registers the -scale Fiedler-solver rows. Metric
// is the matvec count of the fixed-seed solve — the unit the BENCH_8
// Lanczos-vs-power comparison is stated in, deterministic across hosts
// and thread counts.
//
// Two instances tell the two halves of the story:
//
//   - A planted-bisection BReg instance (cut n/10, degree 4) where BOTH
//     solvers converge by their own criteria and land on the identical
//     median split — the setup verifies the splits agree and errors the
//     whole capture if they ever stop doing so. The matvec ratio on
//     this pair is the headline Lanczos win.
//   - A fixed 500×200 grid, the small-spectral-gap regime: Lanczos
//     grinds to the true Fiedler vector (cut 200) while power's
//     iterate-change criterion "converges" thousands of matvecs later
//     on a vector that is still far from it (see docs/PERFORMANCE.md).
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

	var sl, sp spectral.Stats
	lo := spectralLanczosOpts()
	lo.Stats = &sl
	bl, err := spectral.Bisect(g, lo, rng.NewFib(7))
	if err != nil {
		return fmt.Errorf("lanczos setup solve: %w", err)
	}
	po := spectralPowerOpts()
	po.Stats = &sp
	bp, err := spectral.Bisect(g, po, rng.NewFib(7))
	if err != nil {
		return fmt.Errorf("power setup solve: %w", err)
	}
	// The same-split invariant behind the BENCH_8 claim: both solvers'
	// median splits must be identical up to a global side flip.
	flipped := bl.Side(0) != bp.Side(0)
	for v := int32(0); int(v) < g.N(); v++ {
		if (bl.Side(v) != bp.Side(v)) != flipped {
			return fmt.Errorf("spectral scale rows: Lanczos and power splits diverge at vertex %d", v)
		}
	}

	add("scale_spectral_lanczos_breg"+sfx, float64(sl.MatVecs), solverRowOn(g, spectralLanczosOpts()))
	add("scale_spectral_power_breg"+sfx, float64(sp.MatVecs), solverRowOn(g, spectralPowerOpts()))

	add("scale_spectral_fiedler_breg"+sfx+"_t1", float64(sl.MatVecs), solverRowOn(g, spectralLanczosOpts()))

	// The fixed-size small-gap pair. Both solvers run the default Tol by
	// their own criteria; the matvec count is the metric, the cuts they
	// land on are recorded in docs/PERFORMANCE.md, and the capture
	// errors if the Lanczos solve stops reaching the optimal 200-edge
	// split.
	gr, err := gen.Grid(500, 200)
	if err != nil {
		return err
	}
	var gl, gp spectral.Stats
	glo := spectral.Options{MaxIters: 20_000, Stats: &gl}
	blg, err := spectral.Bisect(gr, glo, rng.NewFib(7))
	if err != nil {
		return fmt.Errorf("lanczos grid setup solve: %w", err)
	}
	if blg.Cut() != 200 {
		return fmt.Errorf("lanczos grid split cut %d, want the optimal 200", blg.Cut())
	}
	gpo := spectral.Options{DisableLanczos: true, MaxIters: 100_000, Stats: &gp}
	if _, err := spectral.Bisect(gr, gpo, rng.NewFib(7)); err != nil {
		return fmt.Errorf("power grid setup solve: %w", err)
	}
	add("scale_spectral_lanczos_grid500x200", float64(gl.MatVecs), solverRowOn(gr, spectral.Options{MaxIters: 20_000}))
	add("scale_spectral_power_grid500x200", float64(gp.MatVecs), solverRowOn(gr, spectral.Options{DisableLanczos: true, MaxIters: 100_000}))
	return nil
}

// solverRowOn is solverRow generalized over the instance.
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
