// Package stats provides the small summary-statistics toolkit used by the
// experiment harness, including the paper's two derived columns: relative
// cut improvement and relative speed-up from compaction.
package stats

import (
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary with N = 0.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += float64(d * d)
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Improvement returns the paper's relative improvement column,
// (base − improved)/base × 100 (percent). A zero base with a zero
// improved value is 0% (no room, no loss); a zero base with a positive
// improved value is reported as −inf-like −100·improved, clamped: we
// return −100 to flag regression without dividing by zero.
func Improvement(base, improved float64) float64 {
	if base == 0 {
		if improved == 0 {
			return 0
		}
		return -100
	}
	return (base - improved) / base * 100
}

// SpeedUp returns the paper's relative speed-up column,
// (t_without − t_with)/t_without × 100 (percent); positive means the
// compacted variant was faster.
func SpeedUp(without, with float64) float64 { return Improvement(without, with) }
