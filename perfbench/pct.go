package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles the benchmark may report as a tail, from
// the highest down.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// latency summarizes a latency sample: the median and the highest
// percentile in tailLevels that has at least ten samples beyond it, plus
// the sample count. Failed or shed requests are counted as misses: they sit
// above every completed request, so they can only raise a percentile.
type latency struct {
	N       int     // completed samples plus misses
	Misses  int     // failed, shed or cancelled requests
	P50     float64 // +Inf when the median falls among the misses
	TailPct float64 // 0 when fewer than 20 samples support any tail level
	Tail    float64
}

func summarize(samples []float64, misses int) latency {
	vals := append([]float64(nil), samples...)
	sort.Float64s(vals)
	for i := 0; i < misses; i++ {
		vals = append(vals, math.Inf(1))
	}
	l := latency{N: len(vals), Misses: misses}
	if l.N == 0 {
		return l
	}
	l.P50 = nearestRank(vals, 50)
	for _, p := range tailLevels {
		if l.N-rank(l.N, p) >= 10 {
			l.TailPct = p
			l.Tail = nearestRank(vals, p)
			break
		}
	}
	return l
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps binary rounding of p/100 from moving it (0.999·10000
// is 9990.000000000002).
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// nearestRank returns the p-th percentile of sorted values.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// percentile returns the p-th percentile of an unsorted sample.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, p)
}

// median of a sample (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
