package gen

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// configurationModelOracle is the plain configuration model: every
// attempt refills and fully shuffles the stubs, then tests the pairs in
// order against a fresh map. configurationModel must return the same
// pairing (as a flat stub array) and the same error, and leave r at the
// same position.
func configurationModelOracle(deg []int, r *rng.Rand) ([][2]int32, error) {
	total := 0
	for v, d := range deg {
		if d < 0 {
			return nil, fmt.Errorf("gen: negative degree %d at vertex %d", d, v)
		}
		if d >= len(deg) {
			return nil, fmt.Errorf("gen: degree %d at vertex %d too large for %d vertices", d, v, len(deg))
		}
		total += d
	}
	if total%2 != 0 {
		return nil, fmt.Errorf("gen: odd degree sum %d", total)
	}
	if total == 0 {
		return nil, nil
	}
	stubs := make([]int32, total)
	edges := make([][2]int32, 0, total/2)

attempts:
	for attempt := 0; attempt < maxConfigAttempts; attempt++ {
		stubs = stubs[:0]
		for v, d := range deg {
			for i := 0; i < d; i++ {
				stubs = append(stubs, int32(v))
			}
		}
		r.ShuffleInt32(stubs)
		edges = edges[:0]
		seen := make(map[int64]struct{}, total/2)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				continue attempts
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			key := int64(a)<<32 | int64(b)
			if _, dup := seen[key]; dup {
				continue attempts
			}
			seen[key] = struct{}{}
			edges = append(edges, [2]int32{u, v})
		}
		out := make([][2]int32, len(edges))
		copy(out, edges)
		return out, nil
	}
	return nil, fmt.Errorf("gen: configuration model failed to produce a simple graph after %d attempts", maxConfigAttempts)
}

// sameAsOracle fails t unless configurationModel and the oracle, each
// from a fresh stream of seed, give the same pairs in the same order, the
// same error and the same next word.
func sameAsOracle(t *testing.T, deg []int, seed uint64) {
	t.Helper()
	r, ro := rng.NewFib(seed), rng.NewFib(seed)
	pairs, err := configurationModel(deg, r)
	want, werr := configurationModelOracle(deg, ro)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("deg %v seed %d: error %v, oracle %v", deg, seed, err, werr)
	}
	got := make([][2]int32, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		got = append(got, [2]int32{pairs[i], pairs[i+1]})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("deg %v seed %d: pairs %v, oracle %v", deg, seed, got, want)
	}
	if w, ow := r.Uint64(), ro.Uint64(); w != ow {
		t.Fatalf("deg %v seed %d: next word %#x, oracle %#x", deg, seed, w, ow)
	}
}

// regular returns n copies of d.
func regular(n, d int) []int {
	deg := make([]int, n)
	for i := range deg {
		deg[i] = d
	}
	return deg
}

func TestConfigurationModelMatchesOracle(t *testing.T) {
	// BReg's half: b random vertices of degree d−1, the rest d.
	mix := regular(60, 3)
	for _, v := range rng.NewFib(2).Perm(60)[:8] {
		mix[v]--
	}
	cases := []struct {
		name string
		deg  []int
	}{
		{"regular d2", regular(40, 2)},
		{"regular d3", regular(40, 3)},
		{"regular d4", regular(31, 4)},
		{"regular d5", regular(30, 5)},
		{"regular d6", regular(25, 6)},
		{"BReg mix d3/d2", mix},
		{"zero-degree vertices", []int{0, 3, 0, 3, 3, 0, 3, 2, 2, 0}},
		{"single edge", []int{1, 1}},
		// Vertex 0 needs both others, but vertex 2 has no stub: no simple
		// realization, so every seed exhausts maxConfigAttempts.
		{"no simple realization", []int{2, 2, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				sameAsOracle(t, tc.deg, seed)
			}
		})
	}
}

func FuzzConfigurationModelEquivalence(f *testing.F) {
	f.Add([]byte{3, 3, 3, 3}, uint64(1))
	f.Add([]byte{2, 2, 2, 1, 1, 0, 2}, uint64(7))
	f.Add([]byte{2, 2, 0}, uint64(3))
	f.Add([]byte{0xff, 1}, uint64(4))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		// Up to 24 vertices of degree below 8; a byte of 0xff is a
		// negative degree, and a degree may reach n, so the refusals are
		// compared too.
		if len(data) > 24 {
			data = data[:24]
		}
		deg := make([]int, len(data))
		for v, b := range data {
			deg[v] = int(b % 8)
			if b == 0xff {
				deg[v] = -1
			}
		}
		sameAsOracle(t, deg, seed)
	})
}

// wordsDrawn returns how many words r has drawn since NewFib(seed): the
// index of r's next word in a fresh stream of that seed.
func wordsDrawn(t *testing.T, r *rng.Rand, seed uint64) int {
	t.Helper()
	next := r.Uint64()
	fresh := rng.NewFib(seed)
	for k := 0; k < 1<<20; k++ {
		if fresh.Uint64() == next {
			return k
		}
	}
	t.Fatalf("seed %d: next word not within the first 2^20 of the stream", seed)
	return 0
}

func TestConfigurationModelAllocsIndependentOfAttempts(t *testing.T) {
	deg := regular(200, 4)
	// Each attempt draws total−1 words (plus a rare Intn retry), so the
	// word count tells attempt counts apart.
	words := func(seed uint64) int {
		r := rng.NewFib(seed)
		if _, err := configurationModel(deg, r); err != nil {
			t.Fatal(err)
		}
		return wordsDrawn(t, r, seed)
	}
	seeds := []uint64{1}
	for s := uint64(2); len(seeds) < 2 && s < 100; s++ {
		if words(s) != words(1) {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) < 2 {
		t.Fatal("no two seeds with different attempt counts")
	}
	allocs := func(seed uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := configurationModel(deg, rng.NewFib(seed)); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(seeds[0]), allocs(seeds[1])
	if a != b {
		t.Fatalf("seed %d (%d words) makes %v allocations, seed %d (%d words) %v",
			seeds[0], words(seeds[0]), a, seeds[1], words(seeds[1]), b)
	}
}
