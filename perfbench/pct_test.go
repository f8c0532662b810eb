package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: summarize must sort
	}
	return out
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	cases := []struct {
		n       int
		tailPct float64
		tail    float64
	}{
		{n: 19, tailPct: 0},
		{n: 40, tailPct: 75, tail: 30},
		{n: 100, tailPct: 90, tail: 90},
		{n: 200, tailPct: 95, tail: 190},
		{n: 999, tailPct: 95, tail: 950},
		{n: 1000, tailPct: 99, tail: 990},
		{n: 10000, tailPct: 99.9, tail: 9990},
	}
	for _, c := range cases {
		l := summarize(seq(c.n), 0)
		if l.N != c.n || l.TailPct != c.tailPct || l.Tail != c.tail {
			t.Errorf("n=%d: got N=%d tail p%g=%g, want p%g=%g", c.n, l.N, l.TailPct, l.Tail, c.tailPct, c.tail)
		}
	}
	if l := summarize(seq(101), 0); l.P50 != 51 {
		t.Errorf("median of 1..101 = %g, want 51", l.P50)
	}
}

func TestSummarizeCountsMissesAboveEverySample(t *testing.T) {
	// 190 served plus 10 shed: the ten misses are exactly the samples
	// beyond p95, so the p95 is the slowest served request.
	l := summarize(seq(190), 10)
	if l.N != 200 || l.Misses != 10 || l.TailPct != 95 || l.Tail != 190 {
		t.Fatalf("got %+v, want N=200 misses=10 p95=190", l)
	}
	// One more miss pushes the p95 into the misses.
	l = summarize(seq(189), 11)
	if !math.IsInf(l.Tail, 1) {
		t.Fatalf("p95 with 11 of 200 missing = %g, want +Inf", l.Tail)
	}
	// A majority of misses puts the median among them.
	if l := summarize(seq(10), 20); !math.IsInf(l.P50, 1) || l.TailPct != 0 {
		t.Fatalf("mostly missing: got %+v", l)
	}
	if l := summarize(nil, 0); l.N != 0 || l.P50 != 0 || l.TailPct != 0 {
		t.Fatalf("empty sample: got %+v", l)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", m)
	}
}
