// Package attention implements the sparse attention policies the paper
// compares: dense attention, Longformer-style local attention [3],
// SparseTransformer-style strided attention [8], H2O-style heavy-hitter
// retention [43], and ALISA's Sparse Window Attention (Algorithm 1).
//
// A Policy decides, at every decode step, which cached token positions the
// new token may attend to. Policies are stateful per layer: SWA and H2O
// learn token importance from the attention weights observed at earlier
// steps. The same Policy drives both the runnable decoder (package model's
// Selector hook) and the synthetic attention-process experiments (package
// oracle), so algorithmic results and system results use one code path.
//
// The policies are unexported types reached only through the name table
// (ByName, MustByName), so Fig. 8's comparison set is closed: a further
// method is one more table entry.
package attention

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Policy selects cached token positions at each decode step.
//
// Select returns, for the given layer, the cache indices (0..n-1, n =
// tokens currently cached) the step attends to, in ascending order. The
// returned slice may alias policy-owned scratch: it is valid only until
// the next Select call on the same policy, and callers that retain it must
// copy. Observe feeds back the post-softmax attention weights the step
// produced: indices are global token positions with the current token
// appended last, weights align with indices; implementations must copy
// anything they keep and must tolerate Observe calls with indices they did
// not select (the dense reference path).
//
// Stateful policies confine mutable state to the layer argument, so
// distinct layers of the same policy may be driven from distinct
// goroutines concurrently (package oracle's parallel Evaluate relies on
// this); a single layer is not safe for concurrent use.
type Policy interface {
	Name() string
	Select(layer, n int) []int
	Observe(layer int, indices []int, weights []float64)
}

// Budget converts a caching ratio r into a token budget for n cached
// tokens: ⌊n·r⌉, at least 1 when n > 0 (attending to nothing collapses the
// distribution).
func Budget(n int, r float64) int {
	if n <= 0 {
		return 0
	}
	b := int(math.Floor(float64(n)*r + 0.5))
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b
}

// dense, local, and strided are stateless, so one instance may serve all
// layers concurrently (package oracle's parallel Evaluate does exactly
// that). That sharing is also why their Select allocates a fresh slice
// per call rather than reusing scratch: policy-level scratch would race
// across layer goroutines, and unlike SWA/H2O they have no per-layer
// state to hang it from.

// dense attends to every cached token — the accuracy reference.
type dense struct{}

// Name implements Policy.
func (*dense) Name() string { return "dense" }

// Select implements Policy, returning every cache index.
func (*dense) Select(_, n int) []int { return ascending(0, n) }

// Observe implements Policy as a no-op; dense attention is stateless.
func (*dense) Observe(int, []int, []float64) {}

// local is Longformer-style sliding-window attention: keep only the most
// recent Budget(n, r) tokens. Its failure mode, per the paper's Fig. 4-5,
// is losing important tokens that sit far from the current position.
type local struct {
	ratio float64
}

// Name implements Policy.
func (p *local) Name() string { return "local" }

// Select implements Policy, returning the last ⌊n·r⌉ cache indices.
func (p *local) Select(_, n int) []int {
	b := Budget(n, p.ratio)
	return ascending(n-b, n)
}

// Observe implements Policy as a no-op; the window ignores history.
func (*local) Observe(int, []int, []float64) {}

// strided is SparseTransformer-style strided attention: attend to every
// stride-th token walking back from the current position, with the stride
// chosen so roughly ⌊n·r⌉ tokens are kept.
type strided struct {
	ratio float64
}

// Name implements Policy.
func (p *strided) Name() string { return "strided" }

// Select implements Policy.
func (p *strided) Select(_, n int) []int {
	if n <= 0 {
		return nil
	}
	b := Budget(n, p.ratio)
	stride := n / b
	if stride < 1 {
		stride = 1
	}
	idx := make([]int, 0, b)
	for i := n - 1; i >= 0 && len(idx) < b; i -= stride {
		idx = append(idx, i)
	}
	reverse(idx)
	return idx
}

// Observe implements Policy as a no-op.
func (*strided) Observe(int, []int, []float64) {}

// swa is ALISA's Sparse Window Attention (Algorithm 1). At each step with n
// cached tokens it keeps k = ⌊n·r/2⌉ locally static tokens (the most
// recent k) and k globally dynamic tokens — the positions with the largest
// local attention sum, i.e. the column sums of the attention weights
// observed over the preceding k steps. The mixture captures both language
// locality and drifting long-range importance, which is why its attention
// score distribution tracks dense attention (paper Fig. 4(d)).
type swa struct {
	ratio  float64
	layers []*swaLayer
}

// swaLayer keeps the observation window as a ring of row descriptors over
// a flat index/weight arena, plus the scratch the selection reuses across
// steps. Pushes append to the arena and trims advance a start offset;
// the arena compacts when its dead prefix outgrows the live data, so a
// warmed-up layer is amortised allocation-free per decode step.
type swaLayer struct {
	ring  []winRow // circular descriptors, oldest at head
	head  int      // ring index of the oldest retained row
	count int      // retained rows

	arenaIdx []int     // concatenated indices of the retained rows
	arenaW   []float64 // concatenated weights, in lockstep with arenaIdx
	start    int       // arena offset of the oldest live row

	sum []float64 // per-position weight sum over the retained rows

	selScratch
}

// selScratch is the reusable selection state shared by the SWA and H2O
// layer types, together with the top-k + local-window assembly both
// policies' Select methods reduce to.
type selScratch struct {
	scores []float32 // per-position score vector
	global []int     // top-k winners
	sel    []int     // returned index slice
	topk   tensor.TopKScratch
}

// selectTopPlusLocal builds the selection both budget-splitting policies
// share: the top-g positions before localStart ranked by sum (ascending
// after selection), followed by the local window [localStart, n). With
// recencyEps, unobserved ties break toward newer tokens so cold-start
// behaviour degrades to local attention. The result aliases the scratch.
func (sc *selScratch) selectTopPlusLocal(sum []float64, localStart, k, n int, recencyEps bool) []int {
	scores := growScores(&sc.scores, localStart)
	for pos := 0; pos < localStart && pos < len(sum); pos++ {
		scores[pos] = float32(sum[pos])
	}
	if recencyEps {
		// Small recency epsilon for deterministic, recency-biased tie-breaks.
		for pos := range scores {
			scores[pos] += float32(pos) * 1e-12
		}
	}
	g := k
	if g > localStart {
		g = localStart
	}
	sc.global = sc.topk.ArgTopK(scores, g, sc.global)
	sortInts(sc.global)
	sc.sel = append(sc.sel[:0], sc.global...)
	sc.sel = appendAscending(sc.sel, localStart, n)
	return sc.sel
}

// winRow locates one observed row inside the arenas.
type winRow struct{ off, n int }

// push appends one observed row to the window.
func (st *swaLayer) push(indices []int, weights []float64) {
	if st.count == len(st.ring) {
		grown := make([]winRow, max(8, 2*len(st.ring)))
		for i := 0; i < st.count; i++ {
			grown[i] = st.ring[(st.head+i)%len(st.ring)]
		}
		st.ring = grown
		st.head = 0
	}
	slot := st.head + st.count
	if slot >= len(st.ring) {
		slot -= len(st.ring)
	}
	st.ring[slot] = winRow{off: len(st.arenaIdx), n: len(indices)}
	st.arenaIdx = append(st.arenaIdx, indices...)
	st.arenaW = append(st.arenaW, weights...)
	st.count++
}

// Name implements Policy.
func (p *swa) Name() string { return "swa" }

// K returns the per-half token budget k = ⌊n·r/2⌉ from Algorithm 1, at
// least 1 for non-empty caches.
func (p *swa) K(n int) int {
	if n <= 0 {
		return 0
	}
	k := int(math.Floor(float64(n)*p.ratio/2 + 0.5))
	if k < 1 {
		k = 1
	}
	if 2*k > n {
		k = n / 2
		if k < 1 {
			k = 1
		}
	}
	return k
}

// Select implements Policy: the union of locally static tokens
// [n−k, n−1] and the top-k earlier positions by local attention sum. The
// returned slice is scratch owned by the layer, valid until the next
// Select on the same layer.
func (p *swa) Select(layer, n int) []int {
	if n <= 0 {
		return nil
	}
	k := p.K(n)
	st := p.layer(layer)
	st.trimTo(k)

	localStart := n - k
	if localStart == 0 {
		st.sel = appendAscending(st.sel[:0], 0, n)
		return st.sel
	}

	// Globally dynamic: top-k positions before the local window, ranked by
	// the local attention sum S. Positions never observed score zero and
	// lose to any observed position.
	return st.selectTopPlusLocal(st.sum, localStart, k, n, true)
}

// growScores returns (*buf)[:n] zeroed, growing the backing array
// geometrically so score vectors that lengthen by one position per decode
// step do not reallocate every call.
func growScores(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, max(n, 2*cap(*buf)))
	}
	scores := (*buf)[:n]
	for i := range scores {
		scores[i] = 0
	}
	return scores
}

// Observe implements Policy, pushing this step's attention row into the
// layer's local-sum window. The indices and weights are copied.
func (p *swa) Observe(layer int, indices []int, weights []float64) {
	st := p.layer(layer)
	st.push(indices, weights)
	for i, pos := range indices {
		st.grow(pos + 1)
		st.sum[pos] += weights[i]
	}
}

func (p *swa) layer(l int) *swaLayer {
	if l < 0 || l >= len(p.layers) {
		panic(fmt.Sprintf("attention: layer %d out of range %d", l, len(p.layers)))
	}
	return p.layers[l]
}

func (st *swaLayer) grow(n int) {
	for len(st.sum) < n {
		st.sum = append(st.sum, 0)
	}
}

// trimTo keeps only the most recent k observed rows in the running sum:
// S = Σ AW[n−k : n−1] from Algorithm 1, maintained incrementally. Expired
// rows become a dead arena prefix; when that prefix outgrows the live
// data, the arena compacts in place (amortised O(1) per observed weight).
func (st *swaLayer) trimTo(k int) {
	for st.count > k {
		row := st.ring[st.head]
		idx := st.arenaIdx[row.off : row.off+row.n]
		w := st.arenaW[row.off : row.off+row.n]
		for i, pos := range idx {
			if pos < len(st.sum) {
				st.sum[pos] -= w[i]
			}
		}
		st.start = row.off + row.n
		st.head++
		if st.head == len(st.ring) {
			st.head = 0
		}
		st.count--
	}
	if st.start > len(st.arenaIdx)-st.start {
		live := len(st.arenaIdx) - st.start
		copy(st.arenaIdx, st.arenaIdx[st.start:])
		copy(st.arenaW, st.arenaW[st.start:])
		st.arenaIdx = st.arenaIdx[:live]
		st.arenaW = st.arenaW[:live]
		for i := 0; i < st.count; i++ {
			st.ring[(st.head+i)%len(st.ring)].off -= st.start
		}
		st.start = 0
	}
}

// h2o is the heavy-hitter oracle baseline [43]: like SWA it splits the
// budget between recent tokens and scored tokens, but scores are the
// *cumulative* attention sum over all steps rather than ALISA's local
// (last-k-step) sum. Stale heavy hitters therefore linger, which is the
// behavioural difference the paper calls out in §II-B.
type h2o struct {
	ratio  float64
	layers []*h2oLayer
}

// h2oLayer is the cumulative attention sum plus the same selection scratch
// swaLayer carries, reused across steps.
type h2oLayer struct {
	sum []float64 // cumulative attention sum per position

	selScratch
}

// Name implements Policy.
func (p *h2o) Name() string { return "h2o" }

// Select implements Policy: last-k recents plus top-k cumulative scorers.
// The returned slice is scratch owned by the layer, valid until the next
// Select on the same layer.
func (p *h2o) Select(layer, n int) []int {
	if n <= 0 {
		return nil
	}
	k := int(math.Floor(float64(n)*p.ratio/2 + 0.5))
	if k < 1 {
		k = 1
	}
	if 2*k > n {
		k = n / 2
		if k < 1 {
			k = 1
		}
	}
	st := p.layers[layer]
	localStart := n - k
	if localStart == 0 {
		st.sel = appendAscending(st.sel[:0], 0, n)
		return st.sel
	}
	// No recency epsilon: H2O ranks purely by cumulative mass, which is
	// exactly the stale-hitter behaviour the ablation isolates.
	return st.selectTopPlusLocal(st.sum, localStart, k, n, false)
}

// Observe implements Policy, accumulating into the cumulative sums.
func (p *h2o) Observe(layer int, indices []int, weights []float64) {
	st := p.layers[layer]
	for i, pos := range indices {
		for len(st.sum) <= pos {
			st.sum = append(st.sum, 0)
		}
		st.sum[pos] += weights[i]
	}
}

func ascending(from, to int) []int {
	if to <= from {
		return nil
	}
	idx := make([]int, to-from)
	for i := range idx {
		idx[i] = from + i
	}
	return idx
}

// appendAscending appends from, from+1, …, to−1 to dst.
func appendAscending(dst []int, from, to int) []int {
	for i := from; i < to; i++ {
		dst = append(dst, i)
	}
	return dst
}

func reverse(v []int) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}

// sortInts is insertion sort: selection lists are short and nearly sorted,
// and avoiding package sort keeps this hot path allocation-free.
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
