package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// TestMain lets the parent mode spawn this test binary as its child
// process: a leading -child argument selects run's child mode.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestTinyWorkloads runs every workload at tiny scale, untraced and
// traced, and checks that BENCHMARK.json names only workloads the
// benchmark runs, the metric names and units against BENCHMARK.json,
// the attribution of the traced run, that the two runs certify identical
// results, and that -check accepts a set compared with itself.
func TestTinyWorkloads(t *testing.T) {
	specPath := filepath.Join("..", "..", "BENCHMARK.json")
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, benchmark runs %v", w.Name, workloadNames())
		}
	}
	names := workloadNames()

	out := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scale", "tiny", "-seconds", "0.5", "-trace", trace, "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s exited %d:\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line summaryLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("-trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
			t.Errorf("-trace %s: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
		}
		want := spec.EndToEnd
		if trace == "1" {
			want = spec.PerLayer
		}
		for _, w := range names {
			for _, m := range want {
				got, ok := line.Metrics[w+"/"+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("-trace %s: %s/%s = %+v, want unit %q", trace, w, m.Name, got, m.Unit)
				}
			}
		}
		if len(line.Metrics) != len(names)*len(want) {
			t.Errorf("-trace %s: %d metrics, BENCHMARK.json names %d per workload", trace, len(line.Metrics), len(want))
		}
	}

	for _, w := range names {
		plain, traced := readDoc(t, out, w, 0), readDoc(t, out, w, 1)
		if f := traced.Metrics["trace.attributed_frac"].Value; f < 0.95 {
			t.Errorf("%s: trace.attributed_frac %.3f < 0.95", w, f)
		}
		// Both runs draw their ops from one ensemble, so every (instance,
		// alg, seed) the two ran must agree hash for hash.
		seen := map[[3]string]record{}
		for _, r := range plain.Records {
			seen[[3]string{r.Instance, r.Alg, fmt.Sprint(r.Seed)}] = r
		}
		shared := 0
		for _, r := range traced.Records {
			if p, ok := seen[[3]string{r.Instance, r.Alg, fmt.Sprint(r.Seed)}]; ok {
				shared++
				if p != r {
					t.Errorf("%s: %+v vs %+v", w, p, r)
				}
			}
		}
		if shared == 0 {
			t.Errorf("%s: the two runs share no determinism record", w)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := runCheck(specPath, out, out, &stdout, &stderr); code != 0 {
		t.Errorf("-check of a set against itself exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
}

func readDoc(t *testing.T, dir, workload string, trace int) *resultDoc {
	t.Helper()
	name := filepath.Join(dir, fmt.Sprintf("%s-seed1-trace%d.json", workload, trace))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var d resultDoc
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return &d
}

// TestCertifyRejects checks that certification recomputes the cut and the
// balance on its own and refuses results that do not match.
func TestCertifyRejects(t *testing.T) {
	g, err := gen.BReg(40, 4, 3, rng.NewFib(1))
	if err != nil {
		t.Fatal(err)
	}
	planted := make([]uint8, 40)
	for v := 20; v < 40; v++ {
		planted[v] = 1
	}
	if cut, err := certify(g, planted, 4); err != nil || cut != 4 {
		t.Fatalf("planted bisection: cut %d, err %v", cut, err)
	}
	lopsided := append([]uint8(nil), planted...)
	lopsided[0] = 1
	lopsidedCut, _ := certify(g, lopsided, 0) // the true cut, so only balance fails
	bad := append([]uint8(nil), planted...)
	bad[3] = 2
	for name, c := range map[string]struct {
		sides []uint8
		cut   int64
	}{
		"wrong cut":   {planted, 5},
		"imbalanced":  {lopsided, lopsidedCut},
		"bad side":    {bad, 4},
		"short sides": {planted[:39], 4},
	} {
		if _, err := certify(g, c.sides, c.cut); err == nil {
			t.Errorf("%s: certified", name)
		}
	}
}
