package partition

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestGainBucketsBasics(t *testing.T) {
	gb, err := NewGainBuckets(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if gb.Len() != 0 {
		t.Fatal("new structure not empty")
	}
	if _, _, ok := gb.Max(); ok {
		t.Fatal("Max on empty returned ok")
	}
	gb.Add(0, 3)
	gb.Add(1, -2)
	gb.Add(2, 10)
	gb.Add(3, 10)
	if gb.Len() != 4 {
		t.Fatalf("len = %d", gb.Len())
	}
	v, g, ok := gb.Max()
	if !ok || g != 10 {
		t.Fatalf("max = (%d,%d,%v)", v, g, ok)
	}
	// LIFO tie-break: vertex 3 was added after 2.
	if v != 3 {
		t.Fatalf("max tie-break = %d, want 3 (LIFO)", v)
	}
	// The walk holds exactly the added vertices, with their gains.
	var got [][2]int64
	for c := gb.Cursor(); c.Valid(); c.Next() {
		got = append(got, [2]int64{int64(c.V()), c.Gain()})
	}
	want := [][2]int64{{3, 10}, {2, 10}, {0, 3}, {1, -2}}
	if len(got) != len(want) {
		t.Fatalf("cursor walk %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cursor walk %v, want %v", got, want)
		}
	}
}

func TestGainBucketsPopOrder(t *testing.T) {
	gb, err := NewGainBuckets(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	gains := []int64{4, -6, 0, 6, -1, 2}
	for v, g := range gains {
		gb.Add(int32(v), g)
	}
	var got []int64
	for {
		v, g, ok := gb.Max()
		if !ok {
			break
		}
		gb.Remove(v)
		got = append(got, g)
	}
	want := append([]int64(nil), gains...)
	sort.Slice(want, func(i, j int) bool { return want[i] > want[j] })
	if len(got) != len(want) {
		t.Fatalf("popped %d items", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestGainBucketsUpdate(t *testing.T) {
	gb, _ := NewGainBuckets(3, 5)
	gb.Add(0, 1)
	gb.Add(1, 2)
	gb.UpdateIfPresent(0, 5)
	v, g, ok := gb.Max()
	if !ok || v != 0 || g != 5 {
		t.Fatalf("after update max = (%d,%d)", v, g)
	}
	gb.UpdateIfPresent(0, -5)
	v, g, _ = gb.Max()
	if v != 1 || g != 2 {
		t.Fatalf("after downdate max = (%d,%d)", v, g)
	}
	// No-op update must not disturb structure, and an absent vertex is
	// ignored.
	gb.UpdateIfPresent(1, 2)
	gb.UpdateIfPresent(2, 4)
	if gb.Len() != 2 {
		t.Fatal("update changed size")
	}
	if v, g, _ = gb.Max(); v != 1 || g != 2 {
		t.Fatalf("after no-op updates max = (%d,%d)", v, g)
	}
}

func TestGainBucketsRemoveMiddle(t *testing.T) {
	gb, _ := NewGainBuckets(4, 3)
	// All in same bucket; list order (LIFO) is 3,2,1,0.
	for v := int32(0); v < 4; v++ {
		gb.Add(v, 1)
	}
	gb.Remove(2) // middle of list
	gb.Remove(3) // head
	var seen []int32
	for c := gb.Cursor(); c.Valid(); c.Next() {
		seen = append(seen, c.V())
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 0 {
		t.Fatalf("after removals saw %v, want [1 0]", seen)
	}
}

func TestGainBucketsDescending(t *testing.T) {
	gb, _ := NewGainBuckets(5, 8)
	gains := []int64{5, -8, 3, 3, 0}
	for v, g := range gains {
		gb.Add(int32(v), g)
	}
	var walked []int64
	for c := gb.Cursor(); c.Valid(); c.Next() {
		if v, g := c.V(), c.Gain(); g != gains[v] {
			t.Fatalf("vertex %d reported gain %d, want %d", v, g, gains[v])
		}
		walked = append(walked, c.Gain())
	}
	if len(walked) != len(gains) {
		t.Fatalf("cursor visited %d of %d vertices", len(walked), len(gains))
	}
	for i := 1; i < len(walked); i++ {
		if walked[i] > walked[i-1] {
			t.Fatalf("cursor walk not monotone: %v", walked)
		}
	}
}

func TestGainBucketsPanics(t *testing.T) {
	gb, _ := NewGainBuckets(2, 4)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	gb.Add(0, 1)
	mustPanic("double add", func() { gb.Add(0, 2) })
	mustPanic("remove absent", func() { gb.Remove(1) })
	mustPanic("gain out of range", func() { gb.Add(1, 5) })
}

func TestGainBucketsErrors(t *testing.T) {
	if _, err := NewGainBuckets(2, -1); err == nil {
		t.Fatal("negative bound accepted")
	}
	if _, err := NewGainBuckets(2, maxBucketSpan+1); err == nil {
		t.Fatal("huge bound accepted")
	}
}

// TestGainBucketsStress drives random adds, removes, updates and delta
// steps against a reference map, mirrored on a second structure. A delta
// step is a list of (vertex, delta) pairs — some vertices twice, some
// with deltas that cancel, some absent — applied to gb as UpdateIfPresent
// with each vertex's summed gain, in list order, and to twin as AddGain
// for every pair and then Settle in the same order: the KL pass's two
// sweeps. After every step both must agree on Len, Max and the full
// cursor order, which pins LIFO placement.
// cursorSeq flattens a bucket structure's full descending walk.
func cursorSeq(gb *GainBuckets, buf []int64) []int64 {
	buf = buf[:0]
	for c := gb.Cursor(); c.Valid(); c.Next() {
		buf = append(buf, int64(c.V())<<32|(c.Gain()&0xFFFFFFFF))
	}
	return buf
}

func TestGainBucketsStress(t *testing.T) {
	r := rng.NewFib(33)
	const n = 200
	const bound = 50
	gb, err := NewGainBuckets(n, bound)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewGainBuckets(n, bound)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int32]int64{}
	type delta struct {
		v int32
		d int64
	}
	var steps []delta
	var seqA, seqB []int64
	for step := 0; step < 20000; step++ {
		v := int32(r.Intn(n))
		switch r.Intn(4) {
		case 0:
			if _, in := ref[v]; !in {
				g := int64(r.Intn(2*bound+1) - bound)
				gb.Add(v, g)
				twin.Add(v, g)
				ref[v] = g
			}
		case 1:
			if _, in := ref[v]; in {
				gb.Remove(v)
				twin.Remove(v)
				delete(ref, v)
			}
		case 2:
			if _, in := ref[v]; in {
				g := int64(r.Intn(2*bound+1) - bound)
				gb.UpdateIfPresent(v, g)
				twin.UpdateIfPresent(v, g)
				ref[v] = g
			}
		case 3:
			// Up to four vertices, each split into two deltas that land
			// at random places in the list. A present vertex moves to a
			// random in-range gain, or nowhere (the deltas cancel); an
			// absent vertex gets arbitrary deltas that must be ignored.
			steps = steps[:0]
			target := map[int32]int64{}
			for k := 1 + r.Intn(4); k > 0; k-- {
				u := int32(r.Intn(n))
				if _, dup := target[u]; dup {
					continue
				}
				g, in := ref[u]
				next := g
				if !in {
					next = int64(r.Intn(7) - 3)
				} else if r.Intn(3) > 0 {
					next = int64(r.Intn(2*bound+1) - bound)
				}
				target[u] = next
				first := int64(r.Intn(2*bound+1) - bound)
				i, j := r.Intn(len(steps)+1), r.Intn(len(steps)+2)
				steps = append(steps[:i], append([]delta{{u, first}}, steps[i:]...)...)
				steps = append(steps[:j], append([]delta{{u, next - g - first}}, steps[j:]...)...)
			}
			for _, s := range steps {
				twin.AddGain(s.v, s.d)
			}
			for _, s := range steps {
				twin.Settle(s.v)
				gb.UpdateIfPresent(s.v, target[s.v])
			}
			for u, g := range target {
				if _, in := ref[u]; in {
					ref[u] = g
				}
			}
		}
		if gb.Len() != len(ref) || twin.Len() != len(ref) {
			t.Fatalf("step %d: sizes %d, %d != ref %d", step, gb.Len(), twin.Len(), len(ref))
		}
		av, ag, aok := gb.Max()
		bv, bg, bok := twin.Max()
		if av != bv || ag != bg || aok != bok {
			t.Fatalf("step %d: Max (%d,%d,%v) vs twin (%d,%d,%v)", step, av, ag, aok, bv, bg, bok)
		}
		seqA, seqB = cursorSeq(gb, seqA), cursorSeq(twin, seqB)
		for i := range seqA {
			if seqA[i] != seqB[i] {
				t.Fatalf("step %d: cursor order diverges at %d", step, i)
			}
		}
	}
	// Final check: max agrees with reference.
	if len(ref) > 0 {
		var want int64 = -bound - 1
		for _, g := range ref {
			if g > want {
				want = g
			}
		}
		_, g, ok := gb.Max()
		if !ok || g != want {
			t.Fatalf("final max %d, want %d", g, want)
		}
	}
}

func BenchmarkGainBucketsChurn(b *testing.B) {
	const n = 5000
	gb, err := NewGainBuckets(n, 64)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewFib(1)
	for v := int32(0); v < n; v++ {
		gb.Add(v, int64(r.Intn(129)-64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int32(r.Intn(n))
		gb.UpdateIfPresent(v, int64(r.Intn(129)-64))
	}
}
