// Package harness reproduces the paper's evaluation protocol:
//
//   - every algorithm is run from two independently generated random
//     initial bisections ("best of two starts");
//   - the reported cut is the best of the two runs and the reported time
//     is the total for both (including initial-bisection generation);
//   - 𝒢breg rows average 3 random graphs per parameter setting, 𝒢np rows
//     7, and 𝒢2set/special rows 1, as in Section VI;
//   - for each (algorithm, compacted-algorithm) pair, the relative cut
//     improvement and relative speed-up columns of the appendix are
//     computed as (x_without − x_with)/x_without × 100.
//
// Tables are declarative (a list of GraphSpec rows); the runner is
// deterministic given Config.Seed.
//
// Rows, instances and algorithms run one after another on one
// goroutine, and each (algorithm, instance) cell is one core.BestOf run
// over Config.Starts starts. Config.Observer traces a table run: every
// event is stamped with its row label, and each cell closes with
// BestOf's run_done and then a phase:"harness" run_done (see
// docs/OBSERVABILITY.md).
package harness

import (
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// GraphSpec is one row of a table: a deterministic family of random
// graphs plus metadata.
type GraphSpec struct {
	// Label names the row (e.g. "b=16" or "N=1000").
	Label string
	// Expected is the expected/planted bisection width, or −1 if unknown.
	Expected int64
	// Instances is how many random graphs to average over (≥ 1).
	Instances int
	// Generate builds instance i of the row.
	Generate func(r *rng.Rand) (*graph.Graph, error)
}

// Table is a declarative experiment: an identifier, a title, and rows.
type Table struct {
	ID    string // e.g. "T5B3"
	Title string // e.g. "Gbreg(5000, b, 3)"
	Specs []GraphSpec
}

// Config controls a run.
type Config struct {
	// Seed makes the whole table deterministic (default 1989, the paper's
	// year).
	Seed uint64
	// Starts is the number of random initial bisections per algorithm per
	// graph (default 2, the paper's protocol).
	Starts int
	// Algorithms to evaluate; default is the paper's four: SA, CSA, KL,
	// CKL (in that column order).
	Algorithms []core.Bisector
	// SAOpts overrides the annealing schedule for the default algorithm
	// set (cmd/experiments passes PeriodSA; zero value = JAMS defaults).
	SAOpts anneal.Options
	// Observer, when non-nil, receives the trace events of every
	// algorithm run, stamped with the row label and start index, plus
	// per (algorithm, instance) BestOf's run_done and then a
	// harness-phase run_done carrying the best-of-starts cut and the
	// cell's time. A nil Observer adds no work.
	Observer trace.Observer
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1989
	}
	if c.Starts <= 0 {
		c.Starts = 2
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = PaperAlgorithms(c.SAOpts)
	}
	return c
}

// PeriodSA returns the annealing schedule used by default for the
// appendix reproduction. The paper's SA ran under VAX-780-era CPU
// budgets; with the full modern JAMS schedule (anneal.Options{}) SA
// simply solves every planted instance, flattening the contrasts the
// paper reports. This budget (≈600k trials on a 5000-vertex graph)
// reproduces the paper's shape faithfully: 20–50× above the planted
// width on degree-3 𝒢breg, exact on degree-4 — see EXPERIMENTS.md for
// the side-by-side.
func PeriodSA() anneal.Options {
	return anneal.Options{SizeFactor: 4, TempFactor: 0.9, FreezeLim: 3, MaxTemps: 300}
}

// PaperAlgorithms returns the paper's four methods in appendix column
// order: SA, CSA, KL, CKL.
func PaperAlgorithms(sa anneal.Options) []core.Bisector {
	return []core.Bisector{
		core.SA{Opts: sa},
		core.Compacted{Inner: core.SA{Opts: sa}},
		core.KL{},
		core.Compacted{Inner: core.KL{}},
	}
}

// Cell is one algorithm's aggregated result on one row.
type Cell struct {
	Cut     float64 // mean best-of-starts cut over instances
	Seconds float64 // mean total wall-clock seconds over instances
	// CutStd is the sample standard deviation of the cut across the
	// row's instances (0 for single-instance rows); 𝒢breg rows average 3
	// graphs and 𝒢np rows 7, so the spread matters when reading a cell.
	CutStd float64
}

// RowResult is a completed table row.
type RowResult struct {
	Label    string
	Expected int64
	// Cells is keyed by algorithm name in Config.Algorithms order.
	Cells map[string]Cell
	// CutImprovement and SpeedUp are keyed by inner-algorithm name for
	// every (x, cx) pair present, e.g. "kl" → improvement of ckl over kl.
	CutImprovement map[string]float64
	SpeedUp        map[string]float64
}

// TableResult is a completed experiment.
type TableResult struct {
	ID         string
	Title      string
	Algorithms []string
	Rows       []RowResult
}

// Run executes the table under the config.
func Run(t Table, cfg Config) (*TableResult, error) {
	c := cfg.withDefaults()
	names := make([]string, len(c.Algorithms))
	for i, a := range c.Algorithms {
		names[i] = a.Name()
	}
	res := &TableResult{ID: t.ID, Title: t.Title, Algorithms: names}
	res.Rows = make([]RowResult, len(t.Specs))
	for rowIdx, spec := range t.Specs {
		row, err := runRow(spec, rowIdx, c)
		if err != nil {
			return nil, fmt.Errorf("harness: table %s row %q: %w", t.ID, spec.Label, err)
		}
		res.Rows[rowIdx] = row
	}
	return res, nil
}

func runRow(spec GraphSpec, rowIdx int, c Config) (RowResult, error) {
	instances := spec.Instances
	if instances <= 0 {
		instances = 1
	}
	if spec.Generate == nil {
		return RowResult{}, fmt.Errorf("nil generator")
	}
	rowObs := trace.WithLabel(c.Observer, spec.Label)
	// One best-of-starts bisector per (row, algorithm), each with one
	// reusable workspace that every instance and start of the row reuses.
	algs := make([]core.Bisector, len(c.Algorithms))
	for i, alg := range c.Algorithms {
		algs[i] = core.WithObserver(core.WithWorkspace(core.BestOf{Inner: alg, Starts: c.Starts}), rowObs)
	}
	cuts := map[string][]int64{}
	secs := map[string][]float64{}
	for inst := 0; inst < instances; inst++ {
		// One deterministic stream per (row, instance) for generation,
		// split into per-algorithm streams so algorithms see identical
		// graphs but independent randomness.
		//
		// The graph is generated exactly once per instance and shared by
		// every algorithm and start — Generate is never re-invoked inside
		// the algorithm loop (TestGenerateOncePerInstance pins this).
		// Generation cost therefore cannot leak into the reported
		// timings: the per-algorithm clock starts after the graph exists,
		// and algorithms only read the shared immutable graph.
		base := rng.NewFib(mix(c.Seed, uint64(rowIdx), uint64(inst)))
		g, err := spec.Generate(base)
		if err != nil {
			return RowResult{}, err
		}
		for algIdx, alg := range c.Algorithms {
			ar := base.Split()
			start := time.Now()
			b, err := algs[algIdx].Bisect(g, ar)
			if err != nil {
				return RowResult{}, fmt.Errorf("%s: %v", alg.Name(), err)
			}
			elapsed := time.Since(start).Seconds()
			best := b.Cut()
			if rowObs != nil {
				rowObs.Observe(trace.Event{
					Type: trace.TypeRunDone, Algo: alg.Name(), Phase: "harness",
					Index: inst, Cut: best, BestCut: best,
					ElapsedNS: int64(elapsed * 1e9),
				})
			}
			cuts[alg.Name()] = append(cuts[alg.Name()], best)
			secs[alg.Name()] = append(secs[alg.Name()], elapsed)
		}
	}
	row := RowResult{
		Label:          spec.Label,
		Expected:       spec.Expected,
		Cells:          map[string]Cell{},
		CutImprovement: map[string]float64{},
		SpeedUp:        map[string]float64{},
	}
	for name, cs := range cuts {
		fs := make([]float64, len(cs))
		for i, v := range cs {
			fs[i] = float64(v)
		}
		cutStats := stats.Summarize(fs)
		var tmean float64
		for _, v := range secs[name] {
			tmean += v
		}
		tmean /= float64(len(secs[name]))
		row.Cells[name] = Cell{Cut: cutStats.Mean, Seconds: tmean, CutStd: cutStats.StdDev}
	}
	// Compaction columns for every (x, cx) pair.
	for name, cell := range row.Cells {
		if comp, ok := row.Cells["c"+name]; ok {
			row.CutImprovement[name] = stats.Improvement(cell.Cut, comp.Cut)
			row.SpeedUp[name] = stats.SpeedUp(cell.Seconds, comp.Seconds)
		}
	}
	return row, nil
}

// mix hashes (seed, row, instance) into an independent stream seed.
func mix(seed, row, inst uint64) uint64 {
	s := rng.SplitMix64(seed ^ 0x9E3779B97F4A7C15*row ^ 0xBF58476D1CE4E5B9*inst)
	return s.Uint64()
}

// MeanImprovement averages a table's compaction cut-improvement column
// for the given inner algorithm across rows (Table 1 of the paper).
func (tr *TableResult) MeanImprovement(inner string) float64 {
	var xs []float64
	for _, row := range tr.Rows {
		if v, ok := row.CutImprovement[inner]; ok {
			xs = append(xs, v)
		}
	}
	return stats.Summarize(xs).Mean
}

// MeanCut averages an algorithm's cut column across rows.
func (tr *TableResult) MeanCut(name string) float64 {
	var xs []float64
	for _, row := range tr.Rows {
		if c, ok := row.Cells[name]; ok {
			xs = append(xs, c.Cut)
		}
	}
	return stats.Summarize(xs).Mean
}

// MeanSeconds averages an algorithm's time column across rows.
func (tr *TableResult) MeanSeconds(name string) float64 {
	var xs []float64
	for _, row := range tr.Rows {
		if c, ok := row.Cells[name]; ok {
			xs = append(xs, c.Seconds)
		}
	}
	return stats.Summarize(xs).Mean
}
