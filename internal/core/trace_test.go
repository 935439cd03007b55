package core

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/runctl"
	"repro/internal/trace"
)

// TestBestOfStartStamps checks the shape of a BestOf trace, unstopped
// and stopped by a budget of one checkpoint poll (which the first KL
// start spends): the starts' events arrive stamped 0…k−1 in ascending
// order, the driver's run_done comes last, and its Index is k, the
// number of starts run, not the number asked for.
func TestBestOfStartStamps(t *testing.T) {
	g, err := gen.GNP(200, 0.04, rng.NewFib(37))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ctl  *runctl.Control
		ran  int
	}{
		{"unstopped", nil, 4},
		{"budget 1", runctl.WithBudget(1), 1},
	} {
		rec := trace.NewRecorder(0)
		b := WithControl(BestOf{Inner: KL{}, Starts: 4, Observer: rec}, tc.ctl)
		if _, err := b.Bisect(g, rng.NewFib(14)); err != nil && !runctl.IsStop(err) {
			t.Fatalf("%s: %v", tc.name, err)
		}
		events := rec.Events()
		if len(events) < 2 {
			t.Fatalf("%s: too few events: %d", tc.name, len(events))
		}
		last := events[len(events)-1]
		if last.Type != trace.TypeRunDone || last.Algo != "kl×4" {
			t.Fatalf("%s: last event is %+v, want the driver's run_done", tc.name, last)
		}
		if last.Index != tc.ran {
			t.Fatalf("%s: run_done index %d, want %d starts run", tc.name, last.Index, tc.ran)
		}
		prev := 0
		seen := map[int]bool{}
		for _, e := range events[:len(events)-1] {
			if e.Start < prev {
				t.Fatalf("%s: start %d appeared after start %d", tc.name, e.Start, prev)
			}
			prev = e.Start
			seen[e.Start] = true
		}
		if len(seen) != tc.ran || !seen[0] || !seen[tc.ran-1] {
			t.Fatalf("%s: events from starts %v, want 0…%d", tc.name, seen, tc.ran-1)
		}
	}
}

// TestBestOfObserverDeterminism pins the multi-start half of the
// observability contract: the JSONL stream of a BestOf run is
// byte-identical across runs of one seed, and attaching the observer
// does not change the chosen bisection.
func TestBestOfObserverDeterminism(t *testing.T) {
	g, err := gen.GNP(300, 0.03, rng.NewFib(31))
	if err != nil {
		t.Fatal(err)
	}
	stream := func() ([]byte, int64) {
		var buf bytes.Buffer
		obs := trace.NewJSONL(&buf)
		b, err := BestOf{Inner: KL{}, Starts: 4, Observer: obs}.Bisect(g, rng.NewFib(12))
		if err != nil {
			t.Fatal(err)
		}
		if obs.Err() != nil {
			t.Fatal(obs.Err())
		}
		return buf.Bytes(), b.Cut()
	}
	s1, cut1 := stream()
	s2, cut2 := stream()
	if cut1 != cut2 {
		t.Fatalf("cuts differ across runs: %d vs %d", cut1, cut2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("JSONL streams differ across runs:\n%s\nvs\n%s", s1, s2)
	}
	if len(s1) == 0 {
		t.Fatal("no events recorded")
	}

	plain, err := BestOf{Inner: KL{}, Starts: 4}.Bisect(g, rng.NewFib(12))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cut() != cut1 {
		t.Fatalf("observer changed the best-of result: %d vs %d", plain.Cut(), cut1)
	}
}

// TestWithObserverHelper covers the attach helper across the registry:
// observable algorithms gain events, non-observable ones pass through
// unchanged, and results never change either way.
func TestWithObserverHelper(t *testing.T) {
	g, err := gen.GNP(150, 0.05, rng.NewFib(41))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		alg, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "sa" || name == "csa" {
			continue // full JAMS schedule is too slow for this loop; SA is covered in internal/anneal
		}
		plain, err := alg.Bisect(g, rng.NewFib(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec := trace.NewRecorder(0)
		traced, err := WithObserver(alg, rec).Bisect(g, rng.NewFib(2))
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if plain.Cut() != traced.Cut() {
			t.Fatalf("%s: observer changed the cut: %d vs %d", name, plain.Cut(), traced.Cut())
		}
		_, observable := alg.(Observable)
		if observable && rec.Len() == 0 {
			t.Fatalf("%s is observable but produced no events", name)
		}
		if !observable && rec.Len() != 0 {
			t.Fatalf("%s is not observable but produced %d events", name, rec.Len())
		}
	}
}
