// Package sketch provides a deterministic, mergeable quantile sketch in
// the KLL family (Karnin–Lang–Liberty), sized in constant memory no
// matter how many observations stream through it. The serving loop's
// scale mode streams every completed request's latency into three of
// these, so a 10⁷-request run answers p50/p95/p99 queries from a few
// kilobytes of state instead of a 10⁷-element sort at finalize.
//
// The classic KLL compactor chooses a random offset when halving a full
// buffer; this implementation alternates the offset per level instead,
// trading the randomized guarantee for bit-for-bit replay determinism —
// the property every simulator artifact in this repository is pinned on.
// The deterministic variant keeps the same compaction structure (geometric
// capacity decay c = 2/3 below the top level, weight 2^h per level-h
// item), and its observed rank error is bounded by the property suite at
// 3·n/K across random trace shapes; see RankErrorBound.
package sketch

import (
	"fmt"
	"math"
	"sort"
)

// DefaultK is the top-level compactor capacity used when NewSketch is
// given a non-positive K: ~1.2 % worst-case observed rank error, a few
// kilobytes of state.
const DefaultK = 256

// minLevelCap floors the geometric capacity decay so deep levels still
// buffer enough items to compact meaningfully.
const minLevelCap = 8

// capacityDecay is the per-level shrink factor below the top compactor
// (the KLL paper's c).
const capacityDecay = 2.0 / 3.0

// Sketch is a streaming quantile summary. The zero value is not usable;
// construct with NewSketch. A Sketch is single-goroutine, like the
// serving loop that feeds it.
type Sketch struct {
	k      int
	levels [][]float64 // levels[h] holds items of weight 2^h
	flip   []bool      // per-level alternating compaction offset
	count  uint64
	min    float64
	max    float64

	// scratch backs Quantile's weighted merge so steady-state queries
	// allocate nothing once warm.
	scratch []weighted
}

type weighted struct {
	v float64
	w uint64
}

// NewSketch returns an empty sketch with top-level capacity k (≤ 0
// selects DefaultK).
func NewSketch(k int) *Sketch {
	if k <= 0 {
		k = DefaultK
	}
	return &Sketch{k: k, min: math.Inf(1), max: math.Inf(-1)}
}

// K returns the configured top-level capacity.
func (s *Sketch) K() int { return s.k }

// Count returns the number of observations streamed in.
func (s *Sketch) Count() uint64 { return s.count }

// Min and Max return the exact extremes seen so far (0 when empty) —
// tracked outside the compactors, so they never suffer sketch error.
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// RankErrorBound returns the documented rank-error envelope for a sketch
// of this capacity over n observations: a quantile answer's true rank
// lies within ±RankErrorBound(n) of the requested rank. The bound is the
// empirical envelope the property suite enforces for the deterministic-
// offset compactor (3·n/K, floored at 1); the randomized KLL analysis
// gives the same 1/K shape.
func (s *Sketch) RankErrorBound(n int) float64 {
	b := 3 * float64(n) / float64(s.k)
	if b < 1 {
		b = 1
	}
	return b
}

// Observe streams one value into the sketch. NaN observations are
// rejected with a panic: the sketch orders its compactors by <, under
// which NaN is unsortable, and every latency the serving loop produces
// is a finite clock difference.
//
//alisa:hotpath
func (s *Sketch) Observe(v float64) {
	if math.IsNaN(v) {
		panic("sketch: NaN observation")
	}
	if len(s.levels) == 0 {
		s.levels = append(s.levels, make([]float64, 0, s.k))
		s.flip = append(s.flip, false)
	}
	s.count++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.levels[0] = append(s.levels[0], v)
	if len(s.levels[0]) >= s.capacity(0) {
		s.compress()
	}
}

// capacity returns level h's buffer capacity: k at the top level,
// decaying geometrically below it.
func (s *Sketch) capacity(h int) int {
	c := float64(s.k)
	for i := len(s.levels) - 1; i > h; i-- {
		c *= capacityDecay
	}
	if c < minLevelCap {
		return minLevelCap
	}
	return int(math.Ceil(c))
}

// compress walks the levels bottom-up, halving any buffer at or over
// capacity into the level above.
//
//alisa:hotpath
func (s *Sketch) compress() {
	for h := 0; h < len(s.levels); h++ {
		if len(s.levels[h]) < s.capacity(h) {
			continue
		}
		s.compact(h)
	}
}

// compact sorts level h and promotes alternate elements (offset flipping
// per compaction, the deterministic stand-in for KLL's coin toss) to
// level h+1; an odd leftover stays behind at level h.
//
//alisa:hotpath
func (s *Sketch) compact(h int) {
	buf := s.levels[h]
	if len(buf) < 2 {
		return
	}
	sort.Float64s(buf)
	if h+1 == len(s.levels) {
		s.levels = append(s.levels, make([]float64, 0, minLevelCap))
		s.flip = append(s.flip, false)
	}
	offset := 0
	if s.flip[h] {
		offset = 1
	}
	s.flip[h] = !s.flip[h]
	n := len(buf)
	pairs := n / 2
	for i := 0; i < pairs; i++ {
		s.levels[h+1] = append(s.levels[h+1], buf[2*i+offset])
	}
	if n%2 == 1 {
		// The odd element survives in place at its own weight.
		buf[0] = buf[n-1]
		s.levels[h] = buf[:1]
	} else {
		s.levels[h] = buf[:0]
	}
}

// Quantile returns the estimated q-quantile (q in [0, 1]) of everything
// observed so far: the retained value whose weighted rank covers
// q·(count−1). q ≤ 0 returns the exact minimum and q ≥ 1 the exact
// maximum; an empty sketch returns 0. The answer's true rank lies within
// RankErrorBound(Count()) of the requested rank.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	items := s.scratch[:0]
	for h, buf := range s.levels {
		w := uint64(1) << uint(h)
		for _, v := range buf {
			items = append(items, weighted{v, w})
		}
	}
	s.scratch = items
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	target := q * float64(s.count-1)
	var cum float64
	for _, it := range items {
		cum += float64(it.w)
		if cum > target {
			return it.v
		}
	}
	return s.max
}

// Merge folds o into s: the result summarizes the concatenation of both
// observation streams. o is left untouched. Merging sketches with
// different K is an error — the serving layer always merges digests built
// from one configuration.
func (s *Sketch) Merge(o *Sketch) error {
	if o.k != s.k {
		return fmt.Errorf("sketch: merge K mismatch %d vs %d", o.k, s.k)
	}
	if o.count == 0 {
		return nil
	}
	for len(s.levels) < len(o.levels) {
		s.levels = append(s.levels, make([]float64, 0, minLevelCap))
		s.flip = append(s.flip, false)
	}
	for h, buf := range o.levels {
		s.levels[h] = append(s.levels[h], buf...)
	}
	s.count += o.count
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.compress()
	return nil
}

// Clone returns an independent deep copy, including the deterministic
// compaction offsets, so a forked sketch replays exactly like its
// original — the property the engine fork test pins.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{k: s.k, count: s.count, min: s.min, max: s.max}
	c.levels = make([][]float64, len(s.levels))
	for h, buf := range s.levels {
		c.levels[h] = append(make([]float64, 0, cap(buf)), buf...)
	}
	c.flip = append([]bool(nil), s.flip...)
	return c
}

// RetainedItems returns how many values the sketch currently holds across
// all levels — the fixed-size memory story, exposed for the heap-growth
// guard tests.
func (s *Sketch) RetainedItems() int {
	n := 0
	for _, buf := range s.levels {
		n += len(buf)
	}
	return n
}
