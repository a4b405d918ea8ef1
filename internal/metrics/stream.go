package metrics

import "repro/internal/metrics/sketch"

// LatencyDigest is the streaming counterpart of a sorted latency slice:
// fixed-size state (exact count/sum/min/max plus a mergeable quantile
// sketch) that a serving loop feeds one completed request at a time,
// freeing the per-request record immediately. Its Summary reports the
// same LatencySummary shape as SummarizeInto, with P50/P95/P99 answered
// by the sketch within its documented rank-error bound instead of an
// end-of-run sort — the scale-mode contract (see DESIGN.md §10).
//
// A LatencyDigest is single-goroutine, like the loop that feeds it. The
// zero value is not usable; construct with NewLatencyDigest.
type LatencyDigest struct {
	sum float64
	sk  *sketch.Sketch
}

// NewLatencyDigest returns an empty digest. k sets the sketch's
// top-level capacity (≤ 0 selects sketch.DefaultK).
func NewLatencyDigest(k int) *LatencyDigest {
	return &LatencyDigest{sk: sketch.NewSketch(k)}
}

// Observe streams one latency sample into the digest. Samples must not
// be NaN (the sketch panics); every latency the serving loop produces is
// a finite clock difference.
func (d *LatencyDigest) Observe(v float64) {
	// The conversion rounds v, so a caller's product inlined here is not
	// fused with the add into one multiply-add.
	d.sum += float64(v)
	d.sk.Observe(v)
}

// Count returns the number of samples observed.
func (d *LatencyDigest) Count() uint64 { return d.sk.Count() }

// Summary digests everything observed so far. Mean and Max are exact;
// the percentiles are sketch estimates whose true rank lies within
// sketch.Sketch.RankErrorBound of the requested rank. An empty digest
// yields the zero summary, like SummarizeInto on empty input.
func (d *LatencyDigest) Summary() LatencySummary {
	n := d.sk.Count()
	if n == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Mean: d.sum / float64(n),
		P50:  d.sk.Quantile(0.50),
		P95:  d.sk.Quantile(0.95),
		P99:  d.sk.Quantile(0.99),
		Max:  d.sk.Max(),
	}
}

// Quantile answers an arbitrary quantile from the sketch (q in [0, 1]).
func (d *LatencyDigest) Quantile(q float64) float64 { return d.sk.Quantile(q) }

// Merge folds o into d so the result summarizes both sample streams;
// sketches must share a capacity. o is left untouched.
func (d *LatencyDigest) Merge(o *LatencyDigest) error {
	if err := d.sk.Merge(o.sk); err != nil {
		return err
	}
	d.sum += o.sum
	return nil
}

// Clone returns an independent deep copy that replays exactly like the
// original — the digest half of the engine fork contract.
func (d *LatencyDigest) Clone() *LatencyDigest {
	return &LatencyDigest{sum: d.sum, sk: d.sk.Clone()}
}

// RetainedItems reports how many sample values the digest currently
// holds — constant in the stream length, exposed for heap-growth guards.
func (d *LatencyDigest) RetainedItems() int { return d.sk.RetainedItems() }
