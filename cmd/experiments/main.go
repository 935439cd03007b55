// Command experiments regenerates the paper's evaluation: every appendix
// table (TL, TG, TB, T{2,5}S{25,30,35,40}, T{2,5}NP, T{2,5}B{3,4}), the
// Table-1 compaction summary, and the five Observations of Section VI.
//
// Usage:
//
//	experiments -list
//	experiments -table all [-scale paper|mid|test] [-seed 1989] [-out results.txt]
//	experiments -table T5B3
//	experiments -observations
//
// Paper-scale SA on 5000-vertex graphs is CPU-hungry (the paper's SA took
// up to 20× KL's time on a VAX; the ratio survives). -scale mid keeps the
// table structure with 1000-vertex graphs and finishes in minutes.
//
// Long campaigns can be made interruptible and resumable:
//
//	experiments -table all -checkpoint ckpts/ -timeout 2h
//
// -checkpoint names a directory holding one crash-safe progress file per
// table; rerunning the same command skips every already-completed (row,
// instance) cell. A run stopped by -timeout, -budget, SIGINT, or SIGTERM
// renders the rows finished so far and exits with code 3 (success is 0,
// failure 1). See docs/ROBUSTNESS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/anneal"
	"repro/internal/fsx"
	"repro/internal/harness"
	"repro/internal/runctl"
)

// exitInterrupted is the exit code for campaigns stopped early with
// partial (but valid and checkpointed) results.
const exitInterrupted = 3

func main() {
	interrupted, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if interrupted {
		os.Exit(exitInterrupted)
	}
}

func scaleByName(name string) (harness.Scale, error) {
	switch name {
	case "paper":
		return harness.PaperScale(), nil
	case "mid":
		return harness.Scale{
			TwoSetSizes:   []int{1000},
			BRegWidths:    []int{2, 8, 32},
			TwoSetBs:      []int{8, 32},
			GnpDegrees:    []float64{2.5, 3.0, 3.5, 4.0},
			LadderNs:      []int{34, 100, 334},
			GridDims:      []int{10, 22, 32},
			BTreeSizes:    []int{100, 254, 1022},
			GnpInstances:  3,
			BRegInstances: 3,
		}, nil
	case "test":
		return harness.TestScale(), nil
	default:
		return harness.Scale{}, fmt.Errorf("unknown scale %q (paper, mid, test)", name)
	}
}

func run() (interrupted bool, err error) {
	table := flag.String("table", "", "table ID to run, or 'all'")
	list := flag.Bool("list", false, "list table IDs and exit")
	scaleName := flag.String("scale", "mid", "experiment scale: paper | mid | test")
	seed := flag.Uint64("seed", 1989, "random seed")
	starts := flag.Int("starts", 2, "random starts per algorithm (paper: 2)")
	fullSA := flag.Bool("full-sa", false, "use the full modern JAMS schedule instead of the period-faithful budget (see EXPERIMENTS.md)")
	obs := flag.Bool("observations", false, "check the paper's five Observations (runs the needed tables)")
	out := flag.String("out", "", "also write output to this file")
	csvDir := flag.String("csv", "", "also write one CSV per table into this directory")
	jsonDir := flag.String("json", "", "also write one JSON result per table into this directory")
	parallel := flag.Int("parallel", 0, "run table rows on up to N goroutines (cuts identical; timing columns become contended wall-clock)")
	timeout := flag.Duration("timeout", 0, "stop after this long, rendering rows finished so far (0 = none)")
	budget := flag.Int64("budget", 0, "stop after this many algorithm checkpoint polls (0 = unlimited)")
	ckptDir := flag.String("checkpoint", "", "directory for per-table resume checkpoints; rerun the same command to continue an interrupted campaign")
	flag.Parse()

	if *starts < 1 {
		flag.Usage()
		return false, fmt.Errorf("-starts must be at least 1, got %d", *starts)
	}
	scale, err := scaleByName(*scaleName)
	if err != nil {
		return false, err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return false, err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *list {
		for _, t := range harness.AllTables(scale) {
			fmt.Fprintf(w, "%-8s %s (%d rows)\n", t.ID, t.Title, len(t.Specs))
		}
		return false, nil
	}

	// SIGINT/SIGTERM and -timeout share one context: the harness stops
	// between cells, completed work stays checkpointed, and partial
	// tables are still rendered below.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return false, err
		}
	}

	cfg := harness.Config{Seed: *seed, Starts: *starts, SAOpts: harness.PeriodSA(), Parallel: *parallel}
	cfg.Control = runctl.New(ctx, *budget)
	if *fullSA {
		cfg.SAOpts = anneal.Options{}
	}

	if *obs {
		return runObservations(w, scale, cfg, *ckptDir)
	}
	if *table == "" {
		flag.Usage()
		return false, fmt.Errorf("missing -table (or use -list / -observations)")
	}

	var tables []harness.Table
	if *table == "all" {
		tables = harness.AllTables(scale)
	} else {
		t, ok := harness.TableByID(scale, strings.ToUpper(*table))
		if !ok {
			return false, fmt.Errorf("unknown table %q (use -list)", *table)
		}
		tables = []harness.Table{t}
	}

	var special []*harness.TableResult
	for _, t := range tables {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", t.ID, t.Title)
		res, runErr := harness.Run(t, tableConfig(cfg, t, *ckptDir))
		if runErr != nil && (!runctl.IsStop(runErr) || res == nil) {
			return false, runErr
		}
		if err := res.Render(w); err != nil {
			return false, err
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				return false, err
			}
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, res); err != nil {
				return false, err
			}
		}
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "experiments: interrupted (%v); results above are partial%s\n",
				runErr, resumeHint(*ckptDir))
			return true, nil
		}
		if t.ID == "TL" || t.ID == "TG" || t.ID == "TB" {
			special = append(special, res)
		}
	}
	if len(special) == 3 {
		if err := harness.RenderSummary(w, table1Title(cfg.Starts), special, []string{"kl", "sa"}); err != nil {
			return false, err
		}
	}
	return false, nil
}

// table1Title names the compaction summary after the run's start count
// (the paper's protocol is best of 2).
func table1Title(starts int) string {
	return fmt.Sprintf("Table 1. Bisection width improvement made by compaction (best of %d starts).", starts)
}

// tableConfig attaches a per-table checkpoint file (checkpoints are
// bound to one campaign, so each table gets its own).
func tableConfig(cfg harness.Config, t harness.Table, ckptDir string) harness.Config {
	if ckptDir != "" {
		cfg.Checkpoint = harness.NewCheckpoint(filepath.Join(ckptDir, t.ID+".ckpt.jsonl"))
	}
	return cfg
}

func resumeHint(ckptDir string) string {
	if ckptDir == "" {
		return " (use -checkpoint to make runs resumable)"
	}
	return "; rerun the same command to resume from " + ckptDir
}

// writeCSV stores one table as <dir>/<ID>.csv, atomically: an export
// interrupted mid-write never clobbers the previous complete file.
func writeCSV(dir string, res *harness.TableResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := fsx.NewAtomicFile(filepath.Join(dir, res.ID+".csv"), 0o644)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := res.WriteCSV(f); err != nil {
		return err
	}
	return f.Commit()
}

// writeJSON stores one table as <dir>/<ID>.json, atomically.
func writeJSON(dir string, res *harness.TableResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := fsx.NewAtomicFile(filepath.Join(dir, res.ID+".json"), 0o644)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := res.WriteJSON(f); err != nil {
		return err
	}
	return f.Commit()
}

// runObservations executes the minimum table set needed for O1–O5 and
// prints the verdicts. An interrupted campaign renders what finished and
// skips the verdicts (they need every table complete).
func runObservations(w io.Writer, scale harness.Scale, cfg harness.Config, ckptDir string) (bool, error) {
	need := []string{"TL", "TG", "TB"}
	for _, size := range scale.TwoSetSizes {
		need = append(need, fmt.Sprintf("T%dB3", size/1000), fmt.Sprintf("T%dB4", size/1000))
	}
	results := map[string]*harness.TableResult{}
	for _, id := range need {
		t, ok := harness.TableByID(scale, id)
		if !ok {
			return false, fmt.Errorf("scale is missing table %s", id)
		}
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", t.ID, t.Title)
		res, err := harness.Run(t, tableConfig(cfg, t, ckptDir))
		if err != nil {
			if runctl.IsStop(err) && res != nil {
				if rerr := res.Render(w); rerr != nil {
					return false, rerr
				}
				fmt.Fprintf(os.Stderr, "experiments: interrupted (%v); observations skipped%s\n",
					err, resumeHint(ckptDir))
				return true, nil
			}
			return false, err
		}
		results[id] = res
		if err := res.Render(w); err != nil {
			return false, err
		}
	}
	// Use the largest size present for the degree-3/degree-4 comparison.
	last := scale.TwoSetSizes[len(scale.TwoSetSizes)-1] / 1000
	d3 := results[fmt.Sprintf("T%dB3", last)]
	d4 := results[fmt.Sprintf("T%dB4", last)]
	var random []*harness.TableResult
	for _, size := range scale.TwoSetSizes {
		random = append(random, results[fmt.Sprintf("T%dB3", size/1000)], results[fmt.Sprintf("T%dB4", size/1000)])
	}
	findings := []harness.Finding{
		harness.Observation1(d3, d4),
		harness.Observation2(d3),
		harness.Observation3([]*harness.TableResult{results["TG"], results["TL"], results["TB"]}),
		harness.Observation4(random, results["TB"], results["TL"]),
		harness.Observation5(random),
	}
	fmt.Fprintln(w, "Section VI Observations:")
	for _, f := range findings {
		fmt.Fprintln(w, " ", f)
	}
	if err := harness.RenderSummary(w, table1Title(cfg.Starts),
		[]*harness.TableResult{results["TG"], results["TL"], results["TB"]}, []string{"kl", "sa"}); err != nil {
		return false, err
	}
	return false, nil
}
