package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || !almostEq(s.Mean, 2.5) || !almostEq(s.Min, 1) || !almostEq(s.Max, 4) || !almostEq(s.Median, 2.5) {
		t.Fatalf("summary %+v", s)
	}
	// Sample stddev of 1,2,3,4 = sqrt(5/3).
	if !almostEq(s.StdDev, math.Sqrt(5.0/3.0)) {
		t.Fatalf("stddev %v", s.StdDev)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := Summarize([]float64{5, 1, 3})
	if !almostEq(s.Median, 3) {
		t.Fatalf("median %v", s.Median)
	}
}

func TestSummarizeEmptyAndSingleton(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty: %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.StdDev != 0 || s.Median != 7 {
		t.Fatalf("singleton: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestSummarizePropertyBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		s := Summarize(xs)
		if s.N == 0 {
			return len(xs) == 0
		}
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 10); !almostEq(got, 90) {
		t.Fatalf("improvement %v", got)
	}
	if got := Improvement(10, 10); !almostEq(got, 0) {
		t.Fatalf("no-change improvement %v", got)
	}
	if got := Improvement(10, 20); !almostEq(got, -100) {
		t.Fatalf("regression improvement %v", got)
	}
	if got := Improvement(0, 0); got != 0 {
		t.Fatalf("0/0 improvement %v", got)
	}
	if got := Improvement(0, 5); got != -100 {
		t.Fatalf("zero-base regression %v", got)
	}
}

func TestSpeedUp(t *testing.T) {
	// Paper definition: (t_without − t_with)/t_without × 100.
	if got := SpeedUp(10, 2.5); !almostEq(got, 75) {
		t.Fatalf("speedup %v", got)
	}
	if got := SpeedUp(4, 8); !almostEq(got, -100) {
		t.Fatalf("slowdown %v", got)
	}
}
