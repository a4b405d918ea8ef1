package main

import (
	"math"
	"sort"
)

// summary is the spread of one metric's samples: the median, the first
// and third quartiles, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize digests samples. Quartiles use the "exclusive" method of
// Python's statistics.quantiles(v, n=4), the method the benchmark's
// spread checks are defined with, so the quartiles printed here match
// the ones computed from the same samples there. A single sample is its
// own median and quartiles; no samples give the zero summary.
func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return summary{Median: median(s), Q1: quartile(s, 1), Q3: quartile(s, 3), N: n}
}

// median returns the middle of sorted s, averaging the two middle values
// of an even count.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the i-th quartile (1 or 3) of sorted s, len(s) ≥ 2,
// by the exclusive method: position i·(n+1)/4, interpolated between
// neighbours and clamped to the first and last pair.
func quartile(s []float64, i int) float64 {
	n := len(s)
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// iqrShare is the interquartile range as a share of the median — the
// spread measure the bounds in BENCHMARK.json are compared against.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// percentile returns the p-th percentile of samples (0 < p < 100) by
// linear interpolation between order statistics, and whether the sample
// supports it: a percentile is reported only with at least ten samples
// beyond it, so p99 needs 1,000 samples and p50 needs 20.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 || float64(n)*(100-p)/100 < 10 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo >= n-1 {
		return s[n-1], true
	}
	frac := rank - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac, true
}
