package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// TestCompanionsReachEveryLayer holds every registry entry, bare and
// under BestOf, to the hand-off of the three companions WithObserver,
// WithControl and WithWorkspace attach: each must reach every layer of
// the composition. A layer that drops the observer loses its algo from
// the event stream; one that drops the control runs a KL pass, an SA
// temperature or a multilevel coarsening level after the context was
// cancelled; one that drops a workspace allocates more per warm run.
func TestCompanionsReachEveryLayer(t *testing.T) {
	g := mustGraph(gen.BReg(400, 8, 3, rng.NewFib(4)))
	algos := map[string][]string{
		"ckl": {"coarsen", "kl"}, "mlkl": {"coarsen", "kl"}, "mlkl+spec": {"coarsen", "kl"},
		"csa": {"coarsen", "sa"}, "mlsa": {"coarsen", "sa"},
		"kl": {"kl"}, "sa": {"sa"}, "random": nil, "spectral": nil,
	}
	// Allocations of a warm start with every workspace attached, repeating
	// one seed so that every run is the same run: the random start, the
	// returned bisection and the drivers' per-run closures, nothing per
	// level or per pass.
	maxAllocs := map[string]float64{
		"ckl": 9, "csa": 9, "kl": 5, "mlkl": 10, "mlkl+spec": 12,
		"mlsa": 10, "random": 5, "sa": 5, "spectral": 7,
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, name := range Names() {
		base, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, starts := range []int{1, 2} {
			alg, want := base, slices.Clone(algos[name])
			if starts > 1 {
				alg = BestOf{Inner: base, Starts: starts}
				want = append(want, alg.Name())
			}
			slices.Sort(want)

			rec := trace.NewRecorder()
			if _, err := WithObserver(alg, rec).Bisect(g, rng.NewFib(4)); err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			var got []string
			for _, e := range rec.Events() {
				if !slices.Contains(got, e.Algo) {
					got = append(got, e.Algo)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s: events from %q, want %q", alg.Name(), got, want)
			}

			rec = trace.NewRecorder()
			ctl := runctl.FromContext(cancelled)
			b, err := WithControl(WithObserver(alg, rec), ctl).Bisect(g, rng.NewFib(4))
			levels := 0
			for _, e := range rec.Events() {
				if e.Type == trace.TypePassDone || e.Type == trace.TypeTempDone {
					t.Errorf("%s: %s %s after the context was cancelled", alg.Name(), e.Algo, e.Type)
					break
				}
				if e.Type == trace.TypeLevelDone && e.Phase == "coarsen" {
					levels++
				}
			}
			// ckl and csa's one compaction does not poll; the multilevel
			// driver polls before every level.
			if levels > 1 {
				t.Errorf("%s: %d coarsening levels after the context was cancelled", alg.Name(), levels)
			}
			if alg.Name() == "random" || alg.Name() == "spectral" {
				if err != nil {
					t.Errorf("%s under a cancelled context: %v, want no error", alg.Name(), err)
				}
			} else if !errors.Is(err, context.Canceled) {
				t.Errorf("%s under a cancelled context: %v, want context.Canceled", alg.Name(), err)
			}
			if b == nil || b.Graph() != g {
				t.Fatalf("%s under a cancelled context returned no bisection of g", alg.Name())
			}
			if err := b.Validate(); err != nil {
				t.Errorf("%s under a cancelled context: %v", alg.Name(), err)
			}

			warm := WithWorkspace(alg)
			r := rng.NewFib(4)
			if _, err := warm.Bisect(g, r); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				r.Seed(4)
				if _, err := warm.Bisect(g, r); err != nil {
					t.Fatal(err)
				}
			})
			if limit := float64(starts) * maxAllocs[name]; allocs > limit {
				t.Errorf("warm %s allocates %v per run, want at most %v", alg.Name(), allocs, limit)
			}
		}
	}
}
