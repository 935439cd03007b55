// Command benchdiff compares two benchmark snapshots produced by
// cmd/bench (BENCH_N.json) the way benchstat compares go test -bench
// outputs: for every benchmark series present in both snapshots it
// prints old and new ns/op, the delta, and the allocation columns, and
// it exits non-zero when any shared series regressed by more than the
// tolerance.
//
//	go run ./cmd/benchdiff [-tol 0.10] OLD.json NEW.json
//
// Two additional checks ride along because the snapshots carry them:
//
//   - deterministic result metrics (the "metric" field holds the cut of
//     a fixed-seed run): any difference between snapshots is reported as
//     a failure, since the benchmarked algorithms promise seed-stable
//     results across performance work;
//   - allocation regressions: a series whose allocs/op grew fails
//     regardless of tolerance (zero-alloc steady states are part of the
//     workspace contract, not a soft target).
//
// Series present in only one snapshot are listed as ADDED or REMOVED
// and excluded from the pass/fail decision — the suite grows over time
// and new rows must not read as regressions. Only an empty intersection
// of *algorithm* series is an error.
//
// Service-latency series (names starting with "svc_", produced by
// cmd/bisectd/bisectload — BENCH_5.json) are always informational:
// their ns/op is end-to-end wall-clock under hundreds of concurrent
// clients, which varies with the machine's scheduler far beyond any
// sensible tolerance. benchdiff prints their throughput and p50/p95/p99
// but never fails on them, and a snapshot holding only service series
// does not trip the empty-intersection error.
//
// Thread-scaling series (a "_t<k>" suffix: the same kernel at -threads
// 1/2/4/8, e.g. scale_contract_gnp1m_t4) get that treatment only for
// ns/op when k > 1: wall-clock depends on
// how many cores the host actually has, so it is reported and
// summarized as a parallel-efficiency table (speedup over the _t1 row
// divided by k) but never gated on. Their result metrics and allocation
// counts are host-independent — the sharded kernels promise
// bit-identical results at every degree — and stay gated at every k.
// The _t1 member is an ordinary serial benchmark, gated on all three.
//
// Snapshots since BENCH_7 stamp the capture host's num_cpu and
// gomaxprocs. When the two snapshots disagree on core count, every
// ns/op comparison reflects the host change at least as much as the
// code change, so benchdiff prints a prominent warning and refuses to
// gate on ns/op entirely — allocation and result-metric gates still
// apply, because those are host-independent. (This is also why the
// _t<k> rows of BENCH_6 are flat: that host had a single CPU, so every
// thread count ran the same one core and the rows measure sharding
// overhead, not speedup.)
//
// scripts/check.sh uses this to gate tier-2 on BENCH_(N-1) → BENCH_N.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type benchRow struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	Metric   float64 `json:"metric,omitempty"`
	// Service-latency fields (cmd/bisectd/bisectload snapshots).
	P50NS         float64 `json:"p50_ns,omitempty"`
	P95NS         float64 `json:"p95_ns,omitempty"`
	P99NS         float64 `json:"p99_ns,omitempty"`
	ThroughputRPS float64 `json:"throughput_rps,omitempty"`
}

// isService reports whether a row is a service-latency series, which is
// reported but never gated on.
func isService(name string) bool { return strings.HasPrefix(name, "svc_") }

// threadSeries parses a thread-scaling series name "<base>_t<k>" and
// returns its base name and thread count. ok is false for ordinary
// series.
func threadSeries(name string) (base string, k int, ok bool) {
	i := strings.LastIndex(name, "_t")
	if i < 0 || i+2 >= len(name) {
		return "", 0, false
	}
	for _, c := range name[i+2:] {
		if c < '0' || c > '9' {
			return "", 0, false
		}
		k = k*10 + int(c-'0')
	}
	if k == 0 {
		return "", 0, false
	}
	return name[:i], k, true
}

type snapshot struct {
	Schema     string     `json:"schema"`
	NumCPU     int        `json:"num_cpu"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Benchmarks []benchRow `json:"benchmarks"`
}

func load(path string) (map[string]benchRow, snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, snapshot{}, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	rows := make(map[string]benchRow, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		rows[b.Name] = b
	}
	return rows, s, nil
}

func main() {
	tol := flag.Float64("tol", 0.10, "maximum tolerated ns/op regression (fraction)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 0.10] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRows, oldSnap, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRows, newSnap, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	// A core-count change means every ns/op delta measures the host at
	// least as much as the code: warn loudly and never gate on time.
	// Snapshots older than BENCH_7 carry no num_cpu (0 = unknown), which
	// cannot be distinguished from a host change — treated the same way.
	crossCore := oldSnap.NumCPU != newSnap.NumCPU || oldSnap.GoMaxProcs != newSnap.GoMaxProcs
	if crossCore {
		fmt.Printf("WARNING: snapshots were captured on different host parallelism\n"+
			"  old: num_cpu=%d gomaxprocs=%d\n  new: num_cpu=%d gomaxprocs=%d\n"+
			"  (0 = snapshot predates the num_cpu stamp)\n"+
			"  ns/op deltas are informational only and will NOT gate; allocation\n"+
			"  and result-metric gates still apply.\n\n",
			oldSnap.NumCPU, oldSnap.GoMaxProcs, newSnap.NumCPU, newSnap.GoMaxProcs)
	}

	var names, added, removed []string
	for name := range oldRows {
		if _, ok := newRows[name]; ok {
			names = append(names, name)
		} else {
			removed = append(removed, name)
		}
	}
	for name := range newRows {
		if _, ok := oldRows[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(names)
	sort.Strings(added)
	sort.Strings(removed)
	nonService := func(rows map[string]benchRow) int {
		c := 0
		for name := range rows {
			if !isService(name) {
				c++
			}
		}
		return c
	}
	if len(names) == 0 {
		// An empty intersection is only an error between two algorithm
		// snapshots; an algorithm snapshot vs a service-latency snapshot
		// (BENCH_4 → BENCH_5) legitimately shares nothing.
		if nonService(oldRows) > 0 && nonService(newRows) > 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: no shared benchmark series")
			os.Exit(2)
		}
		fmt.Println("benchdiff: no shared series (service-latency snapshot); nothing to gate on")
	}

	failed := false
	fmt.Printf("%-34s %14s %14s %8s %12s\n", "name", "old ns/op", "new ns/op", "delta", "allocs o→n")
	for _, name := range names {
		o, n := oldRows[name], newRows[name]
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = n.NsPerOp/o.NsPerOp - 1
		}
		if isService(name) {
			// Wall-clock latency under concurrency: reported, never gated.
			fmt.Printf("%-34s %14.0f %14.0f %+7.1f%%   p99 %.1fms → %.1fms  SERVICE (informational)\n",
				name, o.NsPerOp, n.NsPerOp, delta*100, o.P99NS/1e6, n.P99NS/1e6)
			continue
		}
		if _, k, ok := threadSeries(name); ok && k > 1 {
			// Multi-thread wall-clock depends on the host's core count:
			// ns/op is reported (and summarized below), never gated. The
			// result metric and allocation count of a _t<k> row ARE
			// host-independent — the sharded kernels promise bit-identical
			// results and steady allocation at every degree — so those two
			// gates still apply. This is what pins the spectral_* thread
			// series: a matvec-count or split drift at any degree fails
			// the diff even though its wall-clock floats free.
			mark := ""
			if n.AllocsOp > o.AllocsOp {
				mark += "  ALLOC-REGRESSION"
				failed = true
			}
			if o.Metric != n.Metric {
				mark += fmt.Sprintf("  RESULT-DRIFT (%g → %g)", o.Metric, n.Metric)
				failed = true
			}
			fmt.Printf("%-34s %14.0f %14.0f %+7.1f%% %6d → %-4d  THREADS (ns informational)%s\n",
				name, o.NsPerOp, n.NsPerOp, delta*100, o.AllocsOp, n.AllocsOp, mark)
			continue
		}
		mark := ""
		if delta > *tol {
			if crossCore {
				mark = "  SLOWER (not gated: host changed)"
			} else {
				mark = "  REGRESSION"
				failed = true
			}
		}
		if n.AllocsOp > o.AllocsOp {
			mark += "  ALLOC-REGRESSION"
			failed = true
		}
		if o.Metric != n.Metric {
			mark += fmt.Sprintf("  RESULT-DRIFT (%g → %g)", o.Metric, n.Metric)
			failed = true
		}
		fmt.Printf("%-34s %14.0f %14.0f %+7.1f%% %6d → %-4d%s\n",
			name, o.NsPerOp, n.NsPerOp, delta*100, o.AllocsOp, n.AllocsOp, mark)
	}
	// Series present in only one snapshot are informational: a growing
	// suite adds rows every few PRs, and that must not read as a
	// regression. They are excluded from the pass/fail decision.
	for _, name := range added {
		n := newRows[name]
		if isService(name) {
			fmt.Printf("%-34s %14s %14.0f %8s   %.1f jobs/s, p50 %.1fms p95 %.1fms p99 %.1fms  ADDED (service)\n",
				name, "-", n.NsPerOp, "-", n.ThroughputRPS, n.P50NS/1e6, n.P95NS/1e6, n.P99NS/1e6)
			continue
		}
		fmt.Printf("%-34s %14s %14.0f %8s %6s → %-4d  ADDED\n", name, "-", n.NsPerOp, "-", "-", n.AllocsOp)
	}
	for _, name := range removed {
		o := oldRows[name]
		fmt.Printf("%-34s %14.0f %14s %8s %6d → %-4s  REMOVED\n", name, o.NsPerOp, "-", "-", o.AllocsOp, "-")
	}
	printEfficiency(newRows, newSnap)
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL (tolerance %.0f%%)\n", *tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK (%d series within %.0f%%, %d added, %d removed)\n",
		len(names), *tol*100, len(added), len(removed))
}

// printEfficiency summarizes every thread-scaling family in the new
// snapshot: speedup of _t<k> over _t1 and parallel efficiency
// (speedup / k). Efficiency near 100% is linear scaling; on a host with
// fewer cores than k the expected value is cores/k — the header names
// the capture host's core count so the table is read against the right
// ceiling.
func printEfficiency(rows map[string]benchRow, snap snapshot) {
	type member struct {
		k  int
		ns float64
	}
	families := map[string][]member{}
	for name, r := range rows {
		if base, k, ok := threadSeries(name); ok {
			families[base] = append(families[base], member{k, r.NsPerOp})
		}
	}
	var bases []string
	for base, ms := range families {
		has1 := false
		for _, m := range ms {
			has1 = has1 || m.k == 1
		}
		if has1 && len(ms) > 1 {
			bases = append(bases, base)
		}
	}
	if len(bases) == 0 {
		return
	}
	sort.Strings(bases)
	host := "host cores unknown"
	if snap.NumCPU > 0 {
		host = fmt.Sprintf("host num_cpu=%d", snap.NumCPU)
		if snap.NumCPU == 1 {
			host += "; expect <=1.00x everywhere"
		}
	}
	fmt.Printf("\nparallel efficiency (new snapshot, speedup over _t1 / threads; %s)\n", host)
	for _, base := range bases {
		ms := families[base]
		sort.Slice(ms, func(i, j int) bool { return ms[i].k < ms[j].k })
		var t1 float64
		for _, m := range ms {
			if m.k == 1 {
				t1 = m.ns
			}
		}
		fmt.Printf("%-34s", base)
		for _, m := range ms {
			if m.k == 1 || m.ns <= 0 || t1 <= 0 {
				continue
			}
			speedup := t1 / m.ns
			fmt.Printf("  t%d: %.2fx (%3.0f%%)", m.k, speedup, 100*speedup/float64(m.k))
		}
		fmt.Println()
	}
}
