package kl

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/trace"
)

// checkOracle runs production Refine and the plain oracle from base with
// opts, requires identical sides, Stats and events (tentative included),
// and returns the events.
func checkOracle(t *testing.T, base *partition.Bisection, opts Options, bruteMax bool) []trace.Event {
	t.Helper()
	fastRec, plainRec := trace.NewRecorder(), trace.NewRecorder()
	fast, plain := base.Clone(), base.Clone()
	opts.Observer = fastRec
	fastSt, err := Refine(fast, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Observer = plainRec
	plainSt := plainRefine(t, plain, opts, bruteMax)
	for v := int32(0); int(v) < base.N(); v++ {
		if fast.Side(v) != plain.Side(v) {
			t.Fatalf("side[%d] diverges: production %d, oracle %d", v, fast.Side(v), plain.Side(v))
		}
	}
	if fastSt != plainSt {
		t.Fatalf("stats diverge: production=%+v oracle=%+v", fastSt, plainSt)
	}
	got, want := fastRec.Events(), plainRec.Events()
	if len(got) != len(want) {
		t.Fatalf("production emitted %d events, oracle %d", len(got), len(want))
	}
	for i := range got {
		got[i].ElapsedNS = 0
		if got[i] != want[i] {
			t.Fatalf("event %d diverges:\nproduction %+v\noracle     %+v", i, got[i], want[i])
		}
	}
	return got
}

// passSummary is one pass read off a Refine event stream.
type passSummary struct {
	firstBestBatch int // index of the first move_batch past the start cut; -1 if none
	done           trace.Event
}

// passesOf splits a single Refine's events into passes; startCut is the
// cut the run started from.
func passesOf(events []trace.Event, startCut int64) []passSummary {
	var out []passSummary
	cur := passSummary{firstBestBatch: -1}
	for _, e := range events {
		switch e.Type {
		case trace.TypeMoveBatch:
			if cur.firstBestBatch < 0 && e.BestCut < startCut {
				cur.firstBestBatch = e.Index
			}
		case trace.TypePassDone:
			cur.done = e
			out = append(out, cur)
			startCut = e.Cut
			cur = passSummary{firstBestBatch: -1}
		}
	}
	return out
}

// TestLookaheadMatchesOracle pins the bounded pass to the plain oracle,
// which applies the same stop rule by hand. The graphs have more than
// 2·MultilevelLookahead vertices, unit and weighted, so the bound is
// live; each case must cut at least one pass short. Gnp(10⁴, d3) also has
// passes whose first improvement comes more than Lookahead swaps in:
// those must keep going until they improve, then stop by the bound.
func TestLookaheadMatchesOracle(t *testing.T) {
	opts := Options{Lookahead: MultilevelLookahead}
	lateBatch := MultilevelLookahead / trace.MoveBatchSize // first batch past swap L
	for _, tc := range []struct {
		name     string
		n        int
		deg      float64
		seed     uint64
		weighted bool
		late     bool
	}{
		{"gnp3000-d4", 3000, 4, 1, false, false},
		{"gnp3000-d4-weighted", 3000, 4, 2, true, false},
		{"gnp10000-d3", 10000, 3, 3, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.NewFib(tc.seed)
			g, err := gen.GNP(tc.n, tc.deg/float64(tc.n-1), r)
			if err != nil {
				t.Fatal(err)
			}
			if tc.weighted {
				g = reweight(g, r)
			}
			base := partition.NewRandom(g, r)
			passes := passesOf(checkOracle(t, base, opts, false), base.Cut())
			truncated, late := 0, 0
			for _, p := range passes {
				if p.done.Tentative > 0 {
					truncated++
				}
				if p.firstBestBatch >= lateBatch {
					late++
					if p.done.Gain <= 0 {
						t.Fatalf("pass %d found a better prefix in batch %d but kept no gain", p.done.Index, p.firstBestBatch)
					}
				}
			}
			if truncated == 0 {
				t.Fatalf("no pass of %d was cut short: the bound never engaged", len(passes))
			}
			if tc.late && late == 0 {
				t.Fatal("no pass found its first improvement past swap Lookahead: the case pins nothing")
			}
		})
	}
}

// TestLookaheadSmallBoundMatchesOracle drives the same stop rule through
// many small graphs with Lookahead 4, where every selection is also
// checked against the brute-force pair scan.
func TestLookaheadSmallBoundMatchesOracle(t *testing.T) {
	truncated := 0
	f := func(seed uint64) bool {
		r := rng.NewFib(seed)
		n := 2 * (8 + r.Intn(40))
		g, err := gen.GNP(n, 3.0/float64(n-1), r)
		if err != nil {
			return false
		}
		for _, gg := range []*graph.Graph{g, reweight(g, r)} {
			base := partition.NewRandom(gg, r)
			for _, e := range checkOracle(t, base, Options{Lookahead: 4}, true) {
				if e.Tentative > 0 {
					truncated++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if truncated == 0 {
		t.Fatal("Lookahead 4 never cut a pass short")
	}
}
