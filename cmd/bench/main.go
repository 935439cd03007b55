// Command bench runs the repository's reduced-scale benchmark suite and
// writes a machine-readable BENCH_*.json snapshot: per-benchmark ns/op,
// B/op, allocs/op, plus the per-table mean cuts of the paper harness.
// Every PR that touches a hot path appends a snapshot, so the
// performance trajectory of the repository is recorded next to the code
// (see docs/PERFORMANCE.md for how to read and compare snapshots).
//
// Usage:
//
//	go run ./cmd/bench -o BENCH_1.json            # full suite
//	go run ./cmd/bench -quick                     # micro-benchmarks only, stdout
//	go run ./cmd/bench -baseline old.json -o new.json
//
// -baseline embeds a previously written snapshot under "baseline" so a
// single file carries its own before/after comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/anneal"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/kl"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Result is one micro-benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Metric      float64 `json:"metric,omitempty"` // benchmark-specific (e.g. final cut)
}

// TableCuts records the deterministic mean cut per algorithm of one
// harness table — identical across machines and runs for a fixed seed,
// so it doubles as a results-invariance check between snapshots.
type TableCuts struct {
	ID      string             `json:"id"`
	Cuts    map[string]float64 `json:"mean_cuts"`
	Seconds map[string]float64 `json:"mean_seconds"`
}

// Snapshot is the whole BENCH_*.json document. NumCPU and GoMaxProcs
// record the host parallelism the snapshot was captured under: _t<k>
// thread-series rows are only meaningful relative to the cores that
// were actually available, and cmd/benchdiff refuses to gate ns/op
// across snapshots whose core counts differ.
type Snapshot struct {
	Schema     string      `json:"schema"`
	Scale      string      `json:"scale"`
	GoVersion  string      `json:"go"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	GoMaxProcs int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Result    `json:"benchmarks"`
	Tables     []TableCuts `json:"tables,omitempty"`
	Baseline   *Snapshot   `json:"baseline,omitempty"`
	Notes      string      `json:"notes,omitempty"`
}

func gnpGraph(n int, deg float64, seed uint64) (*graph.Graph, error) {
	return gen.GNP(n, deg/float64(n-1), rng.NewFib(seed))
}

func record(name string, metric float64, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Metric:      metric,
	}
}

// klRun measures full KL runs (random start + refinement to fixpoint)
// on one shared workspace — the steady state of a multi-start campaign.
func klRun(g *graph.Graph) (float64, func(b *testing.B), error) {
	ws := kl.NewRefiner()
	bis, _, err := kl.Run(g, kl.Options{Workspace: ws}, rng.NewFib(7))
	if err != nil {
		return 0, nil, err
	}
	return float64(bis.Cut()), func(b *testing.B) {
		r := rng.NewFib(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := kl.Run(g, kl.Options{Workspace: ws}, r); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// klPassSteady measures one steady-state KL pass on a warmed workspace —
// the allocation-free inner loop itself (allocs_per_op must be 0).
func klPassSteady(g *graph.Graph) (func(b *testing.B), error) {
	ws := kl.NewRefiner()
	bis := partition.NewRandom(g, rng.NewFib(9))
	if _, _, _, err := ws.Pass(bis, kl.Options{}); err != nil {
		return nil, err
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ws.Pass(bis, kl.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// benchSAOpts is the reduced annealing schedule shared by every SA
// benchmark row (and by the harness tables below): full-strength
// schedules are minutes-per-op, which testing.Benchmark cannot time.
func benchSAOpts() anneal.Options {
	return anneal.Options{SizeFactor: 4, TempFactor: 0.9, FreezeLim: 3, MaxTemps: 300}
}

// saRun measures full SA runs (random start, calibration, annealing to
// frozen, rebalance) on one shared workspace — the steady state of a
// multi-chain campaign.
func saRun(g *graph.Graph, opts anneal.Options) (float64, func(b *testing.B), error) {
	bis, _, err := anneal.Run(g, opts, rng.NewFib(7))
	if err != nil {
		return 0, nil, err
	}
	return float64(bis.Cut()), func(b *testing.B) {
		opts.Workspace = anneal.NewRefiner()
		r := rng.NewFib(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := anneal.Run(g, opts, r); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// saRefineSteady measures Refine alone — calibration plus the annealing
// trial loop — restarted from the same saved state each iteration, so
// the per-start NewRandom allocation is out of the picture and the row
// exposes the inner loop the way the kl_pass_steady_* row does for KL.
func saRefineSteady(g *graph.Graph, opts anneal.Options) (func(b *testing.B), error) {
	start := partition.NewRandom(g, rng.NewFib(9))
	sides := start.Sides()
	if _, err := anneal.Refine(start, opts, rng.NewFib(9)); err != nil {
		return nil, err
	}
	return func(b *testing.B) {
		opts.Workspace = anneal.NewRefiner()
		r := rng.NewFib(9)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := start.SetSides(sides); err != nil {
				b.Fatal(err)
			}
			if _, err := anneal.Refine(start, opts, r); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// genRow measures a generator end to end (RNG to validated graph); the
// metric is the edge count of the fixed-seed build, which pins the
// generated graph itself across snapshots.
func genRow(build func() (*graph.Graph, error)) (float64, func(b *testing.B), error) {
	g, err := build()
	if err != nil {
		return 0, nil, err
	}
	metric := float64(g.M())
	return metric, func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := build(); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// compactOnceRow measures one full compaction level through the public
// entry point — matching, contraction, random coarse bisection,
// projection, repair — the unit the compacted algorithms pay per start.
func compactOnceRow(g *graph.Graph) (float64, func(b *testing.B), error) {
	initial := func(cg *graph.Graph, r *rng.Rand) *partition.Bisection {
		return partition.NewRandom(cg, r)
	}
	bis, err := coarsen.CompactOnce(g, nil, initial, nil, rng.NewFib(7), nil)
	if err != nil {
		return 0, nil, err
	}
	return float64(bis.Cut()), func(b *testing.B) {
		r := rng.NewFib(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coarsen.CompactOnce(g, nil, initial, nil, r, nil); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

// bisectorRun measures full composed-algorithm runs (CKL, CSA, MLKL)
// through the core registry with a per-campaign workspace — the steady
// state the harness and the parallel drivers run in.
func bisectorRun(alg core.Bisector, g *graph.Graph) (float64, func(b *testing.B), error) {
	bis, err := core.WithWorkspace(alg).Bisect(g, rng.NewFib(7))
	if err != nil {
		return 0, nil, err
	}
	return float64(bis.Cut()), func(b *testing.B) {
		a := core.WithWorkspace(alg)
		r := rng.NewFib(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Bisect(g, r); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}

func tableCuts(t harness.Table) (TableCuts, error) {
	cfg := harness.Config{
		Seed: 1989, Starts: 2,
		SAOpts: anneal.Options{SizeFactor: 4, TempFactor: 0.9, FreezeLim: 3, MaxTemps: 300},
	}
	res, err := harness.Run(t, cfg)
	if err != nil {
		return TableCuts{}, err
	}
	tc := TableCuts{ID: t.ID, Cuts: map[string]float64{}, Seconds: map[string]float64{}}
	for _, name := range res.Algorithms {
		tc.Cuts[name] = res.MeanCut(name)
		tc.Seconds[name] = res.MeanSeconds(name)
	}
	return tc, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "", "write the snapshot to this file (default stdout)")
	baseline := flag.String("baseline", "", "embed this previously written snapshot as the baseline")
	quick := flag.Bool("quick", false, "micro-benchmarks only; skip the harness tables")
	scale := flag.Bool("scale", false, "add the large-scale suite (generation, parse/read/mmap loading, threaded kernels)")
	scaleVerts := flag.Int("scale-n", scaleDefaultN, "vertex count for the -scale suite (up to 10 000 000)")
	notes := flag.String("notes", "", "free-form note stored in the snapshot")
	flag.Parse()
	if *scaleVerts < 2 || *scaleVerts > scaleMaxN {
		return fmt.Errorf("-scale-n %d out of range [2,%d]", *scaleVerts, scaleMaxN)
	}

	scaleTag := "reduced"
	if *scale {
		scaleTag = "reduced+" + scaleSuffix(*scaleVerts)
	}
	snap := Snapshot{
		Schema:     "repro-bench/v1",
		Scale:      scaleTag,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Notes:      *notes,
	}

	// The KL Gnp pair covers the paper's sparse families; the degree-16
	// instance shows the scan optimizations where adjacency lists are
	// long enough to matter (see docs/PERFORMANCE.md).
	type def struct {
		name   string
		metric float64
		fn     func(b *testing.B)
	}
	var defs []def
	add := func(name string, metric float64, fn func(b *testing.B)) {
		defs = append(defs, def{name, metric, fn})
	}
	g25, err := gnpGraph(400, 2.5, 42)
	if err != nil {
		return err
	}
	g40, err := gnpGraph(400, 4.0, 42)
	if err != nil {
		return err
	}
	g160, err := gnpGraph(400, 16.0, 42)
	if err != nil {
		return err
	}
	cut, fn, err := klRun(g25)
	if err != nil {
		return err
	}
	add("kl_run_gnp400_d2.5", cut, fn)
	if cut, fn, err = klRun(g40); err != nil {
		return err
	}
	add("kl_run_gnp400_d4.0", cut, fn)
	if cut, fn, err = klRun(g160); err != nil {
		return err
	}
	add("kl_run_gnp400_d16", cut, fn)
	steady, err := klPassSteady(g40)
	if err != nil {
		return err
	}
	add("kl_pass_steady_gnp400_d4.0", 0, steady)

	// The SA families: the annealing trial loop is degree-insensitive
	// (one uniformly random vertex per trial), so one Gnp instance plus
	// one regular planted-bisection instance covers the paper's SA rows.
	gbreg, err := gen.BReg(400, 8, 4, rng.NewFib(42))
	if err != nil {
		return err
	}
	if cut, fn, err = saRun(g40, benchSAOpts()); err != nil {
		return err
	}
	add("sa_run_gnp400_d4.0", cut, fn)
	if cut, fn, err = saRun(gbreg, benchSAOpts()); err != nil {
		return err
	}
	add("sa_run_breg400_d4", cut, fn)
	if steady, err = saRefineSteady(g40, benchSAOpts()); err != nil {
		return err
	}
	add("sa_refine_steady_gnp400_d4.0", 0, steady)

	// Generator rows: RNG to validated graph, pinned by edge count. These
	// time the construction fast path itself (degree-prepass CSR layout
	// versus builder sort-and-merge).
	m, fn, err := genRow(func() (*graph.Graph, error) {
		return gen.GNP(400, 4.0/399.0, rng.NewFib(42))
	})
	if err != nil {
		return err
	}
	add("gen_gnp400_d4.0", m, fn)
	if m, fn, err = genRow(func() (*graph.Graph, error) {
		return gen.BReg(400, 8, 4, rng.NewFib(42))
	}); err != nil {
		return err
	}
	add("gen_breg400_d4", m, fn)
	p2set, err := gen.TwoSetForAvgDegree(400, 4.0, 16)
	if err != nil {
		return err
	}
	if m, fn, err = genRow(func() (*graph.Graph, error) {
		return gen.TwoSet(400, p2set, p2set, 16, rng.NewFib(42))
	}); err != nil {
		return err
	}
	add("gen_2set400_d4", m, fn)

	// Compaction rows: the paper's Section V pipeline, from the single
	// compaction level the CKL/CSA algorithms pay per start up to the
	// composed algorithms themselves.
	if cut, fn, err = compactOnceRow(g25); err != nil {
		return err
	}
	add("compact_once_gnp400_d2.5", cut, fn)
	if cut, fn, err = compactOnceRow(gbreg); err != nil {
		return err
	}
	add("compact_once_breg400_d4", cut, fn)
	if cut, fn, err = bisectorRun(core.Compacted{Inner: core.KL{}}, g25); err != nil {
		return err
	}
	add("ckl_run_gnp400_d2.5", cut, fn)
	if cut, fn, err = bisectorRun(core.Compacted{Inner: core.KL{}}, g40); err != nil {
		return err
	}
	add("ckl_run_gnp400_d4.0", cut, fn)
	if cut, fn, err = bisectorRun(core.Compacted{Inner: core.SA{Opts: benchSAOpts()}}, g40); err != nil {
		return err
	}
	add("csa_run_gnp400_d4.0", cut, fn)
	if cut, fn, err = bisectorRun(core.Compacted{Inner: core.SA{Opts: benchSAOpts()}}, gbreg); err != nil {
		return err
	}
	add("csa_run_breg400_d4", cut, fn)
	if cut, fn, err = bisectorRun(core.Multilevel{Inner: core.KL{}}, g40); err != nil {
		return err
	}
	add("mlkl_run_gnp400_d4.0", cut, fn)
	// The spectral-initialization ablation pair: identical multilevel
	// pipeline, coarsest level seeded from the Fiedler median split
	// instead of a random start. Compare against mlkl_run_gnp400_d4.0.
	if cut, fn, err = bisectorRun(core.Multilevel{
		Inner: core.KL{},
		Opts:  &coarsen.MultilevelOptions{SpectralInit: true},
	}, g40); err != nil {
		return err
	}
	add("mlkl_spec_run_gnp400_d4.0", cut, fn)

	// Rows that exist only in trees with the workspace arena API (the
	// baseline build stubs this out so snapshots stay comparable).
	addExtraRows(add, gbreg)

	if *scale {
		dir, err := os.MkdirTemp("", "bench-scale-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "bench: generating the %s-vertex scale instance...\n", scaleSuffix(*scaleVerts))
		if err := addScaleRows(add, dir, *scaleVerts); err != nil {
			return err
		}
	}

	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "bench %-28s ", d.name)
		res := record(d.name, d.metric, d.fn)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %8d B/op %4d allocs/op\n", res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		snap.Benchmarks = append(snap.Benchmarks, res)
	}

	if !*quick {
		for _, t := range []harness.Table{
			harness.GnpTable(400, []float64{2.5, 4.0}, 2),
			harness.BRegTable(400, 3, []int{2, 16}, 2),
			harness.LadderTable([]int{34, 100}),
		} {
			fmt.Fprintf(os.Stderr, "table %s\n", t.ID)
			tc, err := tableCuts(t)
			if err != nil {
				return err
			}
			snap.Tables = append(snap.Tables, tc)
		}
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("read baseline: %w", err)
		}
		var base Snapshot
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("parse baseline: %w", err)
		}
		base.Baseline = nil // never nest more than one level
		snap.Baseline = &base
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := fsx.WriteFileAtomic(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	return nil
}
