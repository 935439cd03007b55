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
// Every table runs on one goroutine. On a 2-vCPU x86-64 host the
// paper-scale suite (-table all -scale paper) takes about 12 s and
// -observations -scale paper about 5 s; -scale mid keeps the table
// structure with 1000-vertex graphs and takes under a second. The paper's
// SA took up to 20× KL's time on a VAX, and the ratio survives: SA
// carries most of that time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/anneal"
	"repro/internal/fsx"
	"repro/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
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

func run() error {
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
	flag.Parse()

	if *starts < 1 {
		flag.Usage()
		return fmt.Errorf("-starts must be at least 1, got %d", *starts)
	}
	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	if *list {
		for _, t := range harness.AllTables(scale) {
			fmt.Fprintf(w, "%-8s %s (%d rows)\n", t.ID, t.Title, len(t.Specs))
		}
		return nil
	}

	cfg := harness.Config{Seed: *seed, Starts: *starts, SAOpts: harness.PeriodSA()}
	if *fullSA {
		cfg.SAOpts = anneal.Options{}
	}

	if *obs {
		return runObservations(w, scale, cfg)
	}
	if *table == "" {
		flag.Usage()
		return fmt.Errorf("missing -table (or use -list / -observations)")
	}

	var tables []harness.Table
	if *table == "all" {
		tables = harness.AllTables(scale)
	} else {
		t, ok := harness.TableByID(scale, strings.ToUpper(*table))
		if !ok {
			return fmt.Errorf("unknown table %q (use -list)", *table)
		}
		tables = []harness.Table{t}
	}

	var special []*harness.TableResult
	for _, t := range tables {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", t.ID, t.Title)
		res, err := harness.Run(t, cfg)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, res); err != nil {
				return err
			}
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, res); err != nil {
				return err
			}
		}
		if t.ID == "TL" || t.ID == "TG" || t.ID == "TB" {
			special = append(special, res)
		}
	}
	if len(special) == 3 {
		if err := harness.RenderSummary(w, table1Title(cfg.Starts), special, []string{"kl", "sa"}); err != nil {
			return err
		}
	}
	return nil
}

// table1Title names the compaction summary after the run's start count
// (the paper's protocol is best of 2).
func table1Title(starts int) string {
	return fmt.Sprintf("Table 1. Bisection width improvement made by compaction (best of %d starts).", starts)
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
// prints the verdicts.
func runObservations(w io.Writer, scale harness.Scale, cfg harness.Config) error {
	need := []string{"TL", "TG", "TB"}
	for _, size := range scale.TwoSetSizes {
		need = append(need, fmt.Sprintf("T%dB3", size/1000), fmt.Sprintf("T%dB4", size/1000))
	}
	results := map[string]*harness.TableResult{}
	for _, id := range need {
		t, ok := harness.TableByID(scale, id)
		if !ok {
			return fmt.Errorf("scale is missing table %s", id)
		}
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", t.ID, t.Title)
		res, err := harness.Run(t, cfg)
		if err != nil {
			return err
		}
		results[id] = res
		if err := res.Render(w); err != nil {
			return err
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
	return harness.RenderSummary(w, table1Title(cfg.Starts),
		[]*harness.TableResult{results["TG"], results["TL"], results["TB"]}, []string{"kl", "sa"})
}
