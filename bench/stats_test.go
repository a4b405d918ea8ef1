package main

import (
	"math"
	"testing"
)

func TestSummarizeMatchesExclusiveQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(v, n=4) on the same samples.
	for _, tc := range []struct {
		in             []float64
		median, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 3.5, 1.25, 5.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
	} {
		got := summarize(tc.in)
		if got.N != len(tc.in) || got.Median != tc.median || got.Q1 != tc.q1 || got.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want median %v q1 %v q3 %v", tc.in, got, tc.median, tc.q1, tc.q3)
		}
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", got)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("summarize reordered its input: %v", in)
	}
}

func TestIQRShare(t *testing.T) {
	s := summary{Median: 10, Q1: 9, Q3: 11.5}
	if got := s.iqrShare(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("iqrShare = %v, want 0.25", got)
	}
	if got := (summary{}).iqrShare(); !math.IsInf(got, 1) {
		t.Errorf("iqrShare of a zero median = %v, want +Inf", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i) // descending, so sorting matters
		}
		return v
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{n: 0, p: 50, ok: false},
		{n: 19, p: 50, ok: false},
		{n: 20, p: 50, ok: true, want: 9.5},
		{n: 99, p: 90, ok: false},
		{n: 100, p: 90, ok: true, want: 89.1},
		{n: 999, p: 99, ok: false},
		{n: 1000, p: 99, ok: true, want: 989.01},
		{n: 1000, p: 99.9, ok: false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || (ok && math.Abs(got-tc.want) > 1e-9) {
			t.Errorf("percentile(n=%d, p%g) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}
