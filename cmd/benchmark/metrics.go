package main

import (
	"math"
	"sort"
	"time"
)

// endToEnd computes the end-to-end metrics of an untraced run: outs are
// its ops, wall and cpu the loop's wall-clock and process CPU time, peakKB
// the process's peak RSS over the loop, setups the set-up times in
// seconds.
func endToEnd(w workload, outs []opOutcome, wall, cpu time.Duration, peakKB int64, setups []float64) map[string]metric {
	var lat, logRatios []float64
	for _, o := range outs {
		lat = append(lat, o.latency.Seconds()*1e3)
		for _, r := range o.records {
			logRatios = append(logRatios, math.Log(float64(r.Cut)/float64(r.planted)))
		}
	}
	// Summing in sorted order makes cut_ratio independent of the order in
	// which the run visited the ops, to the last bit.
	sort.Float64s(logRatios)
	n := float64(len(outs))
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {n / wall.Seconds(), "1/s"},
		"latency_p50_ms":  {median(lat), "ms"},
		"latency_tail_ms": {percentile(lat, w.tailPct), "ms"},
		"cpu_s_per_op":    {cpu.Seconds() / n, "s"},
		"peak_rss_mb":     {float64(peakKB) / 1024, "MB"},
		"cut_ratio":       {math.Exp(mean(logRatios)), "1"},
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for none.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks; 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	h := float64(len(s)-1) * p / 100
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
