package rng

import (
	"math"
	"testing"
)

func TestFibonacciDeterministic(t *testing.T) {
	a := NewFib(42)
	b := NewFib(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: generators with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestFibonacciSeedSensitivity(t *testing.T) {
	a := NewFib(1)
	b := NewFib(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/1000 identical outputs; streams not independent", same)
	}
}

func TestFibonacciReseed(t *testing.T) {
	f := NewFib(7)
	first := make([]uint64, 100)
	for i := range first {
		first[i] = f.Uint64()
	}
	f.Seed(7)
	for i := range first {
		if got := f.Uint64(); got != first[i] {
			t.Fatalf("after reseed, step %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestFibonacciAllEvenSeedRecovers(t *testing.T) {
	// Craft a seed situation indirectly: just verify the generator always
	// emits both odd and even values over a window, for several seeds.
	for seed := uint64(0); seed < 8; seed++ {
		f := NewFib(seed)
		odd, even := 0, 0
		for i := 0; i < 1000; i++ {
			if f.Uint64()&1 == 1 {
				odd++
			} else {
				even++
			}
		}
		if odd == 0 || even == 0 {
			t.Fatalf("seed %d: degenerate parity distribution odd=%d even=%d", seed, odd, even)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for SplitMix64 seeded with 0 (from the public
	// reference implementation by Sebastiano Vigna).
	s := SplitMix64(0)
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
		0xF88BB8A8724C81EC,
		0x1B39896A51A8749B,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("SplitMix64 output %d: got %#x want %#x", i, got, w)
		}
	}
}

// TestRandKnownValues pins the generator's words themselves, which the
// golden fixtures pin only through results derived from them: the first
// words of two seeds and word 10,000 (counting from 0) of a third, drawn
// one at a time and again through block Fills and a partial Unread.
func TestRandKnownValues(t *testing.T) {
	first := []struct {
		seed uint64
		want [4]uint64
	}{
		{0, [4]uint64{0x26da4ecc983ea5a3, 0x7c99eccef3cc143f, 0xe037f2e8dc8c6877, 0xe99e8d1a562c5e6e}},
		{1989, [4]uint64{0xe22ec423cc6c7fa8, 0x31d441f7235b0212, 0xb8c68326777c8398, 0xbb36453c42f7c6af}},
	}
	const word10000 = 0x3463d2ab83f1817f // of NewFib(1)
	block := make([]uint64, 512)
	for _, c := range first {
		r := NewFib(c.seed)
		for k, want := range c.want {
			if got := r.Uint64(); got != want {
				t.Fatalf("NewFib(%d) word %d: got %#x want %#x", c.seed, k, got, want)
			}
		}
		// Overdraw a block, keep its first word, return the rest.
		r = NewFib(c.seed)
		r.Fill(block)
		if block[0] != c.want[0] {
			t.Fatalf("NewFib(%d) Fill word 0: got %#x want %#x", c.seed, block[0], c.want[0])
		}
		r.Unread(len(block) - 1)
		for k := 1; k < len(c.want); k++ {
			if got := r.Uint64(); got != c.want[k] {
				t.Fatalf("NewFib(%d) word %d after Unread: got %#x want %#x", c.seed, k, got, c.want[k])
			}
		}
	}
	r := NewFib(1)
	for k := 0; k < 10000; k++ {
		r.Uint64()
	}
	if got := r.Uint64(); got != word10000 {
		t.Fatalf("NewFib(1) word 10000: got %#x want %#x", got, word10000)
	}
	// Twenty blocks cover words 0..10239; word 10,000 is at index 272
	// of the last. Returning the words from 10,000 on replays it.
	r = NewFib(1)
	for k := 0; k < 20; k++ {
		r.Fill(block)
	}
	if got := block[10000-19*512]; got != word10000 {
		t.Fatalf("NewFib(1) Fill word 10000: got %#x want %#x", got, word10000)
	}
	r.Unread(20*512 - 10000)
	if got := r.Uint64(); got != word10000 {
		t.Fatalf("NewFib(1) word 10000 after Unread: got %#x want %#x", got, word10000)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewFib(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewFib(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewFib(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 10 buckets; threshold is the 99.9% quantile of
	// chi2 with 9 degrees of freedom (27.88). Deterministic seed, so this
	// is not flaky.
	r := NewFib(12345)
	const buckets = 10
	const samples = 100000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("chi-squared %.2f exceeds 99.9%% quantile 27.88; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewFib(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestBoolIsBalanced(t *testing.T) {
	r := NewFib(14)
	trues := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	frac := float64(trues) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("Bool true fraction %.4f far from 0.5", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewFib(77)
	for n := 0; n <= 50; n += 7 {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of Perm(4) should be uniform over {0,1,2,3}.
	r := NewFib(5)
	var counts [4]int
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[r.Perm(4)[0]]++
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("Perm(4)[0]==%d with frequency %.3f, want ~0.25", i, frac)
		}
	}
}

func TestShuffleInt32(t *testing.T) {
	r := NewFib(8)
	p := make([]int32, 100)
	for i := range p {
		p[i] = int32(i)
	}
	r.ShuffleInt32(p)
	seen := make([]bool, 100)
	moved := false
	for i, v := range p {
		if seen[v] {
			t.Fatalf("ShuffleInt32 duplicated value %d", v)
		}
		seen[v] = true
		if int32(i) != v {
			moved = true
		}
	}
	if !moved {
		t.Fatal("ShuffleInt32 left a 100-element slice fixed; astronomically unlikely")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewFib(11)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide on %d/1000 outputs", same)
	}
}

func TestUint64nUnbiasedSmallN(t *testing.T) {
	r := NewFib(2024)
	const n = 3
	var counts [n]int
	const trials = 90000
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-1.0/n) > 0.01 {
			t.Fatalf("Uint64n(%d)==%d with frequency %.4f, want ~%.4f", n, i, frac, 1.0/n)
		}
	}
}

func BenchmarkFibonacciUint64(b *testing.B) {
	f := NewFib(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.Uint64()
	}
	_ = sink
}

// BenchmarkFibonacciFill512 times one block of the annealing word
// stream's size.
func BenchmarkFibonacciFill512(b *testing.B) {
	f := NewFib(1)
	buf := make([]uint64, 512)
	for i := 0; i < b.N; i++ {
		f.Fill(buf)
	}
}

func BenchmarkRandIntn(b *testing.B) {
	r := NewFib(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}

// TestFibonacciFillMatchesUint64 pins Fill's block generation to the
// scalar sequence, including across block boundaries and odd lengths:
// blocks inside the ring's 55 words, blocks whose tail is computed
// straight over dst (56 and up, with the annealing block of 512 and
// odd sizes past two lag spans), and scalar draws after each block.
func TestFibonacciFillMatchesUint64(t *testing.T) {
	scalar := NewFib(7)
	block := NewFib(7)
	for _, size := range []int{1, 3, 55, 64, 7, 100, 2, 512, 56, 1000, 137, 512, 54} {
		dst := make([]uint64, size)
		block.Fill(dst)
		for k, v := range dst {
			if want := scalar.Uint64(); v != want {
				t.Fatalf("Fill block size %d, word %d: got %d want %d", size, k, v, want)
			}
		}
		if got, want := block.Uint64(), scalar.Uint64(); got != want {
			t.Fatalf("scalar draw after a %d-word Fill: got %d want %d", size, got, want)
		}
	}
}

// TestFibonacciUnread pins the rewind contract: after Unread(k), the
// generator replays exactly the last k words and then continues the
// original sequence, for rewinds spanning several 55-word state wraps.
// It then rewinds the way the annealing word stream does: Fill a
// 512-word block, consume part of it, Unread the rest, and continue
// with scalar draws.
func TestFibonacciUnread(t *testing.T) {
	f := NewFib(13)
	ref := NewFib(13)
	want := make([]uint64, 10000)
	for i := range want {
		want[i] = ref.Uint64()
	}
	pos := 0
	advance := func(n int) {
		for i := 0; i < n; i++ {
			if got := f.Uint64(); got != want[pos] {
				t.Fatalf("word %d: got %d want %d", pos, got, want[pos])
			}
			pos++
		}
	}
	advance(300)
	for _, k := range []int{1, 7, 55, 56, 123, 299, 0} {
		f.Unread(k)
		pos -= k
		advance(k + 10)
	}
	block := make([]uint64, 512)
	for _, used := range []int{0, 1, 54, 55, 56, 200, 457, 458, 511, 512} {
		f.Fill(block)
		for k := 0; k < used; k++ {
			if block[k] != want[pos] {
				t.Fatalf("block word %d (%d used): got %d want %d", pos, used, block[k], want[pos])
			}
			pos++
		}
		f.Unread(len(block) - used)
		advance(100)
	}
}

// TestRandFillMatchesScalar checks Fill after partial scalar
// consumption: the block continues the scalar stream with nothing
// skipped or repeated.
func TestRandFillMatchesScalar(t *testing.T) {
	a := NewFib(31)
	b := NewFib(31)
	for i := 0; i < 10; i++ {
		a.Uint64()
		b.Uint64()
	}
	got := make([]uint64, 150)
	a.Fill(got)
	for k := range got {
		if want := b.Uint64(); got[k] != want {
			t.Fatalf("Fill word %d: got %d want %d", k, got[k], want)
		}
	}
	// And the streams stay aligned afterwards.
	if a.Uint64() != b.Uint64() {
		t.Fatal("streams diverged after Fill")
	}
}
