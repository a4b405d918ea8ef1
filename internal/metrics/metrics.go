// Package metrics provides the measurement toolkit used throughout the
// evaluation: Spearman rank correlation (paper Fig. 4), attention-weight
// sparsity under the paper's 1 %-of-row-max threshold (Fig. 3/10),
// attention-mass recall (the accuracy mechanism behind Fig. 8), and basic
// summary statistics for throughput reporting.
//
// A float64 conversion around a product that feeds an add rounds the
// product first, which the Go spec forbids fusing into one multiply-add,
// so every statistic is the same on every platform (DESIGN.md §4.2).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Spearman returns the Spearman rank correlation coefficient ρ between a
// and b, which must have equal non-zero length. Ties receive fractional
// (average) ranks. The result lies in [-1, 1]; ρ close to 1 means the two
// attention score vectors order tokens almost identically — the criterion
// the paper uses to validate SWA against dense attention.
func Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("metrics: spearman length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("metrics: spearman needs at least 2 samples, got %d", len(a))
	}
	ra := FractionalRanks(a)
	rb := FractionalRanks(b)
	return Pearson(ra, rb)
}

// FractionalRanks assigns 1-based ranks to v, averaging ranks across ties.
func FractionalRanks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		// Average of 1-based ranks i+1 .. j+1.
		avg := float64(float64(i+j)/2) + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Pearson returns the Pearson correlation of a and b. Vectors with zero
// variance yield an error, since correlation is undefined there.
func Pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, fmt.Errorf("metrics: pearson length mismatch %d vs %d", len(a), len(b))
	}
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += float64(da * db)
		va += float64(da * da)
		vb += float64(db * db)
	}
	if va == 0 || vb == 0 {
		return 0, fmt.Errorf("metrics: pearson undefined for zero-variance input")
	}
	return cov / math.Sqrt(va*vb), nil
}

// Sparsity returns the fraction of elements in row that fall below
// threshold × max(row), the zero criterion from the paper's Fig. 3
// ("elements are zeros if they fall below 1 % of the row-wise maximum").
// Rows with a non-positive maximum count as fully sparse.
func Sparsity(row []float64, threshold float64) float64 {
	if len(row) == 0 {
		return 0
	}
	maxv := math.Inf(-1)
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	if maxv <= 0 {
		return 1
	}
	cut := threshold * maxv
	zeros := 0
	for _, v := range row {
		if v < cut {
			zeros++
		}
	}
	return float64(zeros) / float64(len(row))
}

// SparsityMasked returns Sparsity(row, threshold) for the implicit
// length-rowLen row that holds weights at len(weights) distinct positions
// and zeros everywhere else, without materialising the row — the masked
// attention rows the policies produce, where len(weights) ≪ rowLen. The
// result is bit-identical to materialising and calling Sparsity.
func SparsityMasked(weights []float64, rowLen int, threshold float64) float64 {
	if rowLen == 0 {
		return 0
	}
	maxv := math.Inf(-1)
	for _, v := range weights {
		if v > maxv {
			maxv = v
		}
	}
	if len(weights) < rowLen && maxv < 0 {
		maxv = 0 // the implicit zero positions participate in the row max
	}
	if maxv <= 0 {
		return 1
	}
	cut := threshold * maxv
	zeros := 0
	if 0 < cut {
		zeros = rowLen - len(weights) // every implicit zero falls below cut
	}
	for _, v := range weights {
		if v < cut {
			zeros++
		}
	}
	return float64(zeros) / float64(rowLen)
}

// MassRecall returns the fraction of total probability mass in weights that
// the retained index set captures. This is the mechanistic accuracy proxy:
// a sparse policy that retains nearly all attention mass produces nearly
// dense attention scores (paper Fig. 4), hence nearly dense accuracy.
func MassRecall(weights []float64, retained []int) float64 {
	var total, kept float64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return 1
	}
	seen := make(map[int]bool, len(retained))
	for _, i := range retained {
		if i < 0 || i >= len(weights) || seen[i] {
			continue
		}
		seen[i] = true
		kept += weights[i]
	}
	return kept / total
}

// PerplexityProxy maps mean attention-mass recall to a perplexity estimate
// relative to the dense baseline: ppl = dense · exp(7·(1−recall)^2.35).
//
// Losing attention mass starves the prediction head of context; in the
// paper's Fig. 8 the degradation is gentle near recall 1 and catastrophic
// ("accuracy collapse") as recall falls. The two constants are calibrated
// to the paper's anchors: SWA at 80 % KV sparsity retains ≈88 % of mass
// and shows <5 % perplexity regression, while local attention at the same
// sparsity loses half the mass and collapses (≥4× perplexity).
func PerplexityProxy(densePPL, recall float64) float64 {
	if recall >= 1 {
		return densePPL
	}
	if recall < 0 {
		recall = 0
	}
	lost := 1 - recall
	return densePPL * math.Exp(7.0*math.Pow(lost, 2.35))
}

// AccuracyProxy maps recall to a QA-task accuracy relative to the dense
// baseline accuracy, with chance as the collapse floor. The same
// recall→quality shape as PerplexityProxy, expressed on a bounded scale.
func AccuracyProxy(denseAcc, chance, recall float64) float64 {
	if recall >= 1 {
		return denseAcc
	}
	if recall < 0 {
		recall = 0
	}
	lost := 1 - recall
	retainFrac := math.Exp(-5.5 * math.Pow(lost, 2.35))
	return chance + float64((denseAcc-chance)*retainFrac)
}

// Mean returns the arithmetic mean of v, or 0 for empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Percentile returns the p-th percentile of v using linear interpolation
// between order statistics. v is not modified. The contract, pinned by
// the edge-case table tests:
//
//   - Empty input returns 0 (there is no distribution to ask about).
//   - p ≤ 0 returns the minimum and p ≥ 100 the maximum; p is
//     effectively clamped to [0, 100], never an error.
//   - A single-element or all-equal input returns that value for every p.
//   - Otherwise the result interpolates linearly between the two order
//     statistics straddling rank p/100·(n−1), so p=50 of [1, 2] is 1.5.
//   - NaN samples are not rejected: sort.Float64s orders NaN before
//     every number, so NaNs occupy the lowest ranks and low percentiles
//     (and interpolations touching them) come back NaN. Callers with
//     possibly-NaN data must filter first — the serving pipeline never
//     produces NaN latencies, and the streaming sketch path rejects NaN
//     outright.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// LatencySummary is the percentile digest the serving evaluation reports
// for each latency distribution (TTFT, TPOT, end-to-end). The JSON tags
// are part of the WindowSnapshot wire format served by the gateway's
// /v1/metrics endpoint; see the golden encoding test.
type LatencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// Summarize digests v into its serving percentiles. Empty input yields the
// zero summary. v is not modified.
func Summarize(v []float64) LatencySummary {
	sum, _ := SummarizeInto(v, nil)
	return sum
}

// SummarizeInto is Summarize with a caller-owned scratch buffer: v is
// copied into scratch (grown as needed), sorted once, and every quantile
// of the summary is read from that single sort. It returns the summary
// and the (possibly grown) scratch for reuse, so a caller digesting
// several distributions — the serving loop's TTFT/TPOT/E2E triple —
// performs no per-summary allocation after the first. v is not modified;
// the returned scratch holds v's values in sorted order until the next
// call. Bit-identical to Summarize.
func SummarizeInto(v, scratch []float64) (LatencySummary, []float64) {
	if len(v) == 0 {
		return LatencySummary{}, scratch
	}
	s := append(scratch[:0], v...)
	sort.Float64s(s)
	return LatencySummary{
		Mean: Mean(s),
		P50:  sortedPercentile(s, 50),
		P95:  sortedPercentile(s, 95),
		P99:  sortedPercentile(s, 99),
		Max:  s[len(s)-1],
	}, s
}

// sortedPercentile is Percentile over already-sorted data, so one sort
// serves all the quantiles of a summary.
func sortedPercentile(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}
