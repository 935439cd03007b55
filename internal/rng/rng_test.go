package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFibonacciDeterministic(t *testing.T) {
	a := NewFibonacci(42)
	b := NewFibonacci(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: generators with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestFibonacciSeedSensitivity(t *testing.T) {
	a := NewFibonacci(1)
	b := NewFibonacci(2)
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
	f := NewFibonacci(7)
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
		f := NewFibonacci(seed)
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

func TestMul64MatchesBigComputation(t *testing.T) {
	// Property: mul64 agrees with the decomposition via 32-bit halves
	// computed a second, independent way.
	f := func(x, y uint64) bool {
		hi, lo := mul64(x, y)
		// Independent recomputation using math/bits-free long multiplication
		// with different grouping.
		a, b := x>>32, x&0xFFFFFFFF
		c, d := y>>32, y&0xFFFFFFFF
		ll := b * d
		lh := b * c
		hl := a * d
		hh := a * c
		carry := (ll>>32 + lh&0xFFFFFFFF + hl&0xFFFFFFFF) >> 32
		wantHi := hh + lh>>32 + hl>>32 + carry
		wantLo := x * y
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
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
	f := NewFibonacci(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += f.Uint64()
	}
	_ = sink
}

// BenchmarkFibonacciFill512 times one block of the annealing word
// stream's size.
func BenchmarkFibonacciFill512(b *testing.B) {
	f := NewFibonacci(1)
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

// plainSource hides Fibonacci's Fill so a Rand built over it cannot use
// the bulk path anywhere.
type plainSource struct{ f *Fibonacci }

func (p plainSource) Uint64() uint64 { return p.f.Uint64() }

// TestFillerStreamIdentical is the contract the repository's determinism
// rests on: a Rand over a Filler source delivers exactly the word stream
// of a Rand over the same source with the bulk path hidden, across every
// derived draw.
func TestFillerStreamIdentical(t *testing.T) {
	buffered := NewFib(99)
	plain := New(plainSource{NewFibonacci(99)})
	for i := 0; i < 3000; i++ {
		switch i % 5 {
		case 0:
			if a, b := buffered.Uint64(), plain.Uint64(); a != b {
				t.Fatalf("step %d: Uint64 %d != %d", i, a, b)
			}
		case 1:
			if a, b := buffered.Intn(17), plain.Intn(17); a != b {
				t.Fatalf("step %d: Intn %d != %d", i, a, b)
			}
		case 2:
			if a, b := buffered.Float64(), plain.Float64(); a != b {
				t.Fatalf("step %d: Float64 %v != %v", i, a, b)
			}
		case 3:
			if a, b := buffered.Bool(), plain.Bool(); a != b {
				t.Fatalf("step %d: Bool %v != %v", i, a, b)
			}
		case 4:
			a, b := buffered.Split(), plain.Split()
			if a.Uint64() != b.Uint64() {
				t.Fatalf("step %d: Split streams diverged", i)
			}
		}
	}
}

// TestFibonacciFillMatchesUint64 pins Fill's block generation to the
// scalar sequence, including across block boundaries and odd lengths:
// blocks inside the ring's 55 words, blocks whose tail is computed
// straight over dst (56 and up, with the annealing block of 512 and
// odd sizes past two lag spans), and scalar draws after each block.
func TestFibonacciFillMatchesUint64(t *testing.T) {
	scalar := NewFibonacci(7)
	block := NewFibonacci(7)
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
	f := NewFibonacci(13)
	ref := NewFibonacci(13)
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

// TestRandFillDrainsBuffer checks Fill after partial scalar consumption:
// the buffered words come first, then fresh ones, with nothing skipped.
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
