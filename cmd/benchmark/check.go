package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names, units, directions and regression bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadSet reads the untraced result documents of one set, by workload.
func loadSet(dir string) (map[string][]*resultDoc, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := map[string][]*resultDoc{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d resultDoc
		if err := json.Unmarshal(data, &d); err != nil || d.Schema != resultSchema {
			continue // not a result document
		}
		if !d.Trace {
			set[d.Workload] = append(set[d.Workload], &d)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result documents", dir)
	}
	return set, nil
}

// setStats summarizes one metric over one set's runs. Spread is the
// interquartile range as a share of the median.
type setStats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func (s setStats) String() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %.4f", s.Median, s.Q1, s.Q3, s.Spread)
}

func statsOf(docs []*resultDoc, name string) setStats {
	var xs []float64
	for _, d := range docs {
		if m, ok := d.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	return setStats{N: len(xs), Median: med, Q1: q1, Q3: q3, Spread: ratio(q3-q1, math.Abs(med))}
}

// verdict compares set b against set a: "worse" when b's median is worse
// than a's by more than the bound, "unresolved" when either set's spread
// exceeds the bound, "within" otherwise.
func verdict(m specMetric, a, b setStats) string {
	if a.N == 0 || b.N == 0 {
		return "missing"
	}
	delta := ratio(b.Median-a.Median, math.Abs(a.Median))
	if m.Better == "higher" {
		delta = -delta
	}
	switch {
	case delta > m.Bound:
		return "worse"
	case a.Spread > m.Bound || b.Spread > m.Bound:
		return "unresolved"
	}
	return "within"
}

type checkRow struct {
	A       setStats `json:"a"`
	B       setStats `json:"b"`
	Bound   float64  `json:"bound"`
	Verdict string   `json:"verdict"`
}

// checkSummary is the last line -check prints.
type checkSummary struct {
	OK               bool                           `json:"ok"`
	Workloads        map[string]map[string]checkRow `json:"workloads"`
	RecordsCompared  int                            `json:"records_compared"`
	RecordMismatches int                            `json:"record_mismatches"`
	NonComparable    []string                       `json:"non_comparable,omitempty"`
}

// runCheck compares two sets of result documents metric by metric and
// checks that every (instance, algorithm, seed) both sets ran produced the
// same cut and sides. It fails when a metric is worse beyond its bound, a
// workload is missing from a set, or a determinism record differs.
func runCheck(specPath, dirA, dirB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	a, err := loadSet(dirA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadSet(dirB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	sum := checkSummary{OK: true, Workloads: map[string]map[string]checkRow{}}
	inSpec := map[string]bool{}
	for _, w := range spec.Workloads {
		inSpec[w.Name] = true
	}
	fmt.Fprintf(stdout, "%-10s %-16s %-34s %-34s %5s  %s\n", "workload", "metric", "set A: median [q1, q3] IQR/median", "set B: median [q1, q3] IQR/median", "bound", "verdict")
	// Every workload of BENCHMARK.json must be in both sets; the others are
	// compared when both sets hold them.
	for _, w := range workloadNames() {
		if !inSpec[w] && (len(a[w]) == 0 || len(b[w]) == 0) {
			continue
		}
		rows := map[string]checkRow{}
		for _, m := range spec.EndToEnd {
			row := checkRow{A: statsOf(a[w], m.Name), B: statsOf(b[w], m.Name), Bound: m.Bound}
			row.Verdict = verdict(m, row.A, row.B)
			if row.Verdict == "worse" || row.Verdict == "missing" {
				sum.OK = false
			}
			rows[m.Name] = row
			fmt.Fprintf(stdout, "%-10s %-16s %-34s %-34s %5.3g  %s\n",
				w, m.Name, row.A, row.B, m.Bound, row.Verdict)
		}
		sum.Workloads[w] = rows
		for _, d := range append(append([]*resultDoc(nil), a[w]...), b[w]...) {
			if !d.Comparable {
				sum.NonComparable = append(sum.NonComparable, fmt.Sprintf("%s seed %d", d.Workload, d.Seed))
			}
		}
	}

	type key struct {
		workload, instance, alg string
		seed                    uint64
	}
	seen := map[key]record{}
	for w, docs := range a {
		for _, d := range docs {
			for _, r := range d.Records {
				seen[key{w, r.Instance, r.Alg, r.Seed}] = r
			}
		}
	}
	var mismatches []string
	for w, docs := range b {
		for _, d := range docs {
			for _, r := range d.Records {
				ra, ok := seen[key{w, r.Instance, r.Alg, r.Seed}]
				if !ok {
					continue
				}
				sum.RecordsCompared++
				if ra != r {
					sum.RecordMismatches++
					mismatches = append(mismatches, fmt.Sprintf("%s %s %s seed %d: cut %d/%s vs %d/%s", w, r.Instance, r.Alg, r.Seed, ra.Cut, ra.Sides, r.Cut, r.Sides))
				}
			}
		}
	}
	sort.Strings(mismatches)
	for _, m := range mismatches {
		fmt.Fprintln(stdout, "RECORD MISMATCH:", m)
	}
	fmt.Fprintf(stdout, "determinism records: %d compared, %d differ\n", sum.RecordsCompared, sum.RecordMismatches)
	for _, nc := range sum.NonComparable {
		fmt.Fprintln(stdout, "NOT COMPARABLE:", nc)
	}
	if sum.RecordMismatches > 0 {
		sum.OK = false
	}
	data, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !sum.OK {
		return 1
	}
	return 0
}
