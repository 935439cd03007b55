package core

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/kl"
	"repro/internal/rng"
	"repro/internal/trace"
)

// tentativePasses counts the pass_done events the lookahead bound ended.
func tentativePasses(events []trace.Event) int {
	k := 0
	for _, e := range events {
		if e.Tentative > 0 {
			k++
		}
	}
	return k
}

// On Gbreg no improving pass finds a better prefix more than
// kl.MultilevelLookahead swaps after its previous best, so the registry's
// bounded mlkl and mlkl+spec keep the sides and cut of the same drivers
// with full Figure 2 passes, while cutting passes short.
func TestMultilevelLookaheadKeepsGbregResults(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		g := mustGraph(gen.BReg(n, n/500, 3, rng.NewFib(uint64(n))))
		for _, name := range []string{"mlkl", "mlkl+spec"} {
			bounded, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			ml := bounded.(Multilevel)
			if ml.Inner.(KL).Opts.Lookahead != kl.MultilevelLookahead {
				t.Fatalf("%s: registry KL has Lookahead %d", name, ml.Inner.(KL).Opts.Lookahead)
			}
			full := Multilevel{Inner: KL{}, Opts: ml.Opts}
			rec := trace.NewRecorder()
			got, err := WithObserver(bounded, rec).Bisect(g, rng.NewFib(7))
			if err != nil {
				t.Fatal(err)
			}
			want, err := full.Bisect(g, rng.NewFib(7))
			if err != nil {
				t.Fatal(err)
			}
			if got.Cut() != want.Cut() || !bytes.Equal(got.SidesRef(), want.SidesRef()) {
				t.Fatalf("%s n=%d: bounded cut %d, full passes %d", name, n, got.Cut(), want.Cut())
			}
			if tentativePasses(rec.Events()) == 0 {
				t.Fatalf("%s n=%d: no pass was cut short", name, n)
			}
		}
	}
}

// Plain and compacted KL stay Figure 2: on a graph where mlkl's bound
// engages, kl and ckl run every pass to its end and never report
// tentative.
func TestPlainKLPassesRunInFull(t *testing.T) {
	g := mustGraph(gen.GNP(10_000, 3.0/9999, rng.NewFib(21)))
	for _, name := range []string{"kl", "ckl", "mlkl"} {
		b, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		if _, err := WithObserver(b, rec).Bisect(g, rng.NewFib(22)); err != nil {
			t.Fatal(err)
		}
		k := tentativePasses(rec.Events())
		if bounded := name == "mlkl"; (k > 0) != bounded {
			t.Fatalf("%s: %d passes report tentative", name, k)
		}
	}
}
