package partition

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/rng"
)

// cursorSeq flattens a bucket structure's full descending walk.
func cursorSeq(gb *GainBuckets, buf []int64) []int64 {
	buf = buf[:0]
	for c := gb.Cursor(); c.Valid(); c.Next() {
		buf = append(buf, int64(c.V())<<32|(c.Gain()&0xFFFFFFFF))
	}
	return buf
}

// TestShardedMoverMatchesSerial drives identical move sequences
// through the serial Move/UpdateIfPresent path and through ShardedMover
// at several pool degrees (including the nil inline pool), comparing
// cut, side weights, gains, and the exact bucket layouts after every
// step.
func TestShardedMoverMatchesSerial(t *testing.T) {
	r := rng.NewFib(77)
	g, err := gen.GNP(400, 12.0/399, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, degree := range []int{1, 2, 3, 8} {
		pool := par.New(degree)
		ref := NewRandom(g, rng.NewFib(5))
		got := ref.Clone()

		newBuckets := func(b *Bisection) [2]*GainBuckets {
			var bk [2]*GainBuckets
			for s := 0; s < 2; s++ {
				gb, err := NewGainBuckets(g.N(), g.MaxWeightedDegree())
				if err != nil {
					t.Fatal(err)
				}
				bk[s] = gb
			}
			for v := int32(0); int(v) < g.N(); v++ {
				bk[b.Side(v)].Add(v, b.Gain(v))
			}
			return bk
		}
		refBk := newBuckets(ref)
		gotBk := newBuckets(got)

		var mover ShardedMover
		mover.Bind(pool, got, gotBk[0], gotBk[1])

		check := func(step string) {
			t.Helper()
			if ref.Cut() != got.Cut() {
				t.Fatalf("degree %d %s: cut %d != %d", degree, step, got.Cut(), ref.Cut())
			}
			for v := int32(0); int(v) < g.N(); v++ {
				if ref.Side(v) != got.Side(v) || ref.Gain(v) != got.Gain(v) {
					t.Fatalf("degree %d %s: vertex %d state diverged", degree, step, v)
				}
			}
			var a, b []int64
			for s := 0; s < 2; s++ {
				a, b = cursorSeq(refBk[s], a), cursorSeq(gotBk[s], b)
				if len(a) != len(b) {
					t.Fatalf("degree %d %s: side %d bucket sizes differ", degree, step, s)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("degree %d %s: side %d bucket layout diverged at %d", degree, step, s, i)
					}
				}
			}
		}

		// Single moves with bucket maintenance.
		mr := rng.NewFib(9)
		for i := 0; i < 60; i++ {
			v := int32(mr.Intn(g.N()))
			if !refBk[ref.Side(v)].Contains(v) {
				continue
			}
			refBk[ref.Side(v)].Remove(v)
			gotBk[got.Side(v)].Remove(v)
			ref.Move(v)
			for _, e := range g.Neighbors(v) {
				refBk[ref.Side(e.To)].UpdateIfPresent(e.To, ref.Gain(e.To))
			}
			mover.Move(v)
			check("move")
		}
		// The bucket-free rollback form.
		for i := 0; i < 30; i++ {
			v := int32(mr.Intn(g.N()))
			ref.Move(v)
			mover.MoveNoBuckets(v)
		}
		check("rollback")
		if err := got.Validate(); err != nil {
			t.Fatalf("degree %d: %v", degree, err)
		}
		mover.Unbind()
		pool.Close()
	}
}

// TestShardedMoverSteadyAllocs pins the zero-allocation contract of the
// sharded move kernel once bound.
func TestShardedMoverSteadyAllocs(t *testing.T) {
	r := rng.NewFib(13)
	g, err := gen.GNP(500, 16.0/499, r)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRandom(g, rng.NewFib(3))
	var bk [2]*GainBuckets
	for s := 0; s < 2; s++ {
		if bk[s], err = NewGainBuckets(g.N(), g.MaxWeightedDegree()); err != nil {
			t.Fatal(err)
		}
	}
	for v := int32(0); int(v) < g.N(); v++ {
		bk[b.Side(v)].Add(v, b.Gain(v))
	}
	pool := par.New(4)
	defer pool.Close()
	var mover ShardedMover
	mover.Bind(pool, b, bk[0], bk[1])
	mover.Move(0) // warm up: first Bind constructed the closures already
	allocs := testing.AllocsPerRun(50, func() {
		mover.Move(0)
		mover.Move(0)
	})
	if allocs != 0 {
		t.Fatalf("sharded move allocated %.1f times per run, want 0", allocs)
	}
}

// TestRangeCursorCoversCursor pins the segment decomposition the
// parallel move proposal relies on: walking disjoint segments from the
// highest down and concatenating the visits reproduces the full
// cursor's descending LIFO sequence, for any segment count.
func TestRangeCursorCoversCursor(t *testing.T) {
	r := rng.NewFib(31)
	gb, err := NewGainBuckets(300, 40)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 300; v++ {
		gb.Add(v, int64(r.Intn(81)-40))
	}
	// Churn to exercise repositions and maxIdx laziness.
	for i := 0; i < 500; i++ {
		gb.Update(int32(r.Intn(300)), int64(r.Intn(81)-40))
	}
	want := cursorSeq(gb, nil)
	for _, segs := range []int{1, 2, 3, 7, 16} {
		var got []int64
		span := gb.Span()
		for s := segs - 1; s >= 0; s-- {
			lo, hi := s*span/segs, (s+1)*span/segs
			for c := gb.RangeCursor(lo, hi); c.Valid(); c.Next() {
				got = append(got, int64(c.V())<<32|(c.Gain()&0xFFFFFFFF))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("segs=%d: %d visits, want %d", segs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segs=%d: visit %d diverges", segs, i)
			}
		}
	}
}
