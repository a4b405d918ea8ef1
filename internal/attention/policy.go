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
// returned slice aliases the layer's scratch: it is valid until the next
// Select on the same layer, and callers that retain it must copy. Observe
// feeds back the post-softmax attention weights the step produced:
// indices are global token positions with the current token appended
// last, weights align with indices; implementations must copy anything
// they keep and must tolerate Observe calls with indices they did not
// select (the dense reference path).
//
// Select(layer, 0) starts a sequence on that layer, on a new or used
// instance: it clears what the layer observed, whatever the instance ran
// before, so the selections that follow are the ones a fresh instance
// would make, and the layer keeps its buffers. Every sequence opens with
// n = 0 (no token cached yet), so a caller restarts an instance simply by
// driving it through the next sequence; Fig. 8 reuses its policy sets
// from group to group this way.
//
// Every policy confines mutable state, selection scratch included, to the
// layer argument, so distinct layers of the same policy may be driven from
// distinct goroutines concurrently (package oracle's parallel Evaluate
// relies on this); a single layer is not safe for concurrent use. A layer
// outside the count the policy was built for panics.
type Policy interface {
	Name() string
	Select(layer, n int) []int
	Observe(layer int, indices []int, weights []float64)
}

// Observes reports whether p's selections depend on the weights Observe
// feeds it. dense, local and strided select by position alone and their
// Observe is a no-op, so a caller may skip building the masked row it
// would pass them; any other Policy, one defined outside this package
// included, is taken to observe.
func Observes(p Policy) bool {
	switch p.(type) {
	case *dense, *local, *strided:
		return false
	}
	return true
}

// Budget converts a caching ratio r into a token budget for n cached
// tokens: ⌊n·r⌉, at least 1 when n > 0 (attending to nothing collapses the
// distribution).
func Budget(n int, r float64) int {
	if n <= 0 {
		return 0
	}
	// The conversion rounds the product before the add, so no platform
	// fuses the two into one multiply-add with a different rounding.
	b := int(math.Floor(float64(float64(n)*r) + 0.5))
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b
}

// dense attends to every cached token — the accuracy reference.
type dense struct {
	layers []*[]int // per-layer Select scratch
}

// Name implements Policy.
func (*dense) Name() string { return "dense" }

// Select implements Policy, returning every cache index.
func (p *dense) Select(layer, n int) []int {
	sel := layerOf(p.layers, layer)
	if n <= 0 {
		return nil
	}
	*sel = appendAscending((*sel)[:0], 0, n)
	return *sel
}

// Observe implements Policy as a no-op; dense attention is stateless.
func (*dense) Observe(int, []int, []float64) {}

// local is Longformer-style sliding-window attention: keep only the most
// recent Budget(n, r) tokens. Its failure mode, per the paper's Fig. 4-5,
// is losing important tokens that sit far from the current position.
type local struct {
	ratio  float64
	layers []*[]int // per-layer Select scratch
}

// Name implements Policy.
func (p *local) Name() string { return "local" }

// Select implements Policy, returning the last ⌊n·r⌉ cache indices.
func (p *local) Select(layer, n int) []int {
	sel := layerOf(p.layers, layer)
	if n <= 0 {
		return nil
	}
	*sel = appendAscending((*sel)[:0], n-Budget(n, p.ratio), n)
	return *sel
}

// Observe implements Policy as a no-op; the window ignores history.
func (*local) Observe(int, []int, []float64) {}

// strided is SparseTransformer-style strided attention: attend to every
// stride-th token walking back from the current position, with the stride
// chosen so roughly ⌊n·r⌉ tokens are kept.
type strided struct {
	ratio  float64
	layers []*[]int // per-layer Select scratch
}

// Name implements Policy.
func (p *strided) Name() string { return "strided" }

// Select implements Policy: the b = Budget(n, r) positions n−1, n−1−s,
// …, n−1−(b−1)·s with stride s = ⌊n/b⌋, emitted oldest first. b ≤ n
// makes s ≥ 1 and b·s ≤ n keeps the oldest position in range.
func (p *strided) Select(layer, n int) []int {
	sel := layerOf(p.layers, layer)
	if n <= 0 {
		return nil
	}
	b := Budget(n, p.ratio)
	stride := n / b
	*sel = (*sel)[:0]
	for i := n - 1 - (b-1)*stride; i < n; i += stride {
		*sel = append(*sel, i)
	}
	return *sel
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
// steps. Pushes append to the arena and trims advance a start offset over
// a dead prefix, which a push that would overflow the arena drops first
// (see push), so a warmed-up layer is amortised allocation-free per
// decode step.
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
	sel  []int // returned index slice
	topk tensor.TopKScratch
}

// selectTopPlusLocal builds the selection both budget-splitting policies
// share: the top-k positions before localStart ranked by sum (all of
// them when k ≥ localStart), in ascending index order, followed by the
// local window [localStart, n). A position never observed scores zero.
// With recencyEps, a position's score gains a recency epsilon, so
// unobserved ties break toward newer tokens and cold-start behaviour
// degrades to local attention. Each score goes straight into the
// selection's order keys. The result aliases the scratch.
//
//alisa:hotpath
func (sc *selScratch) selectTopPlusLocal(sum []float64, localStart, k, n int, recencyEps bool) []int {
	keys := sc.topk.KeyBuffer(localStart)
	observed := min(len(sum), localStart)
	// The observed positions and the unobserved tail run as separate
	// loops, with and without the epsilon, so none branches per position.
	// The epsilon's conversion keeps its product from fusing with the add;
	// the tail's zero score plus the epsilon is the epsilon.
	if recencyEps {
		for pos, s := range sum[:observed] {
			keys[pos] = tensor.OrderKey(float32(s) + float32(float32(pos)*1e-12))
		}
		for pos := observed; pos < localStart; pos++ {
			keys[pos] = tensor.OrderKey(float32(float32(pos) * 1e-12))
		}
	} else {
		for pos, s := range sum[:observed] {
			keys[pos] = tensor.OrderKey(float32(s))
		}
		zero := tensor.OrderKey(0)
		for pos := observed; pos < localStart; pos++ {
			keys[pos] = zero
		}
	}
	sc.sel = sc.topk.TopKAscendingKeys(keys, k, sc.sel) // k clamps to localStart
	sc.sel = appendAscending(sc.sel, localStart, n)
	return sc.sel
}

// winRow locates one observed row inside the arenas.
type winRow struct{ off, n int }

// push appends one observed row to the window. A row that would overflow
// the arena first moves the live rows to its front, dropping the dead
// prefix of trimmed ones; a row that, with the live rows, would fill more
// than half of it first moves them into an arena twice the size. Either
// way at least half the arena is free afterwards, so the copy is
// amortised O(1) per pushed weight and the arena grows O(log n) times.
// Growing before the arena fills keeps it at least twice the largest
// window it has held, so a restarted sequence no longer than an earlier
// one never grows it.
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
	n, c := len(indices), cap(st.arenaIdx)
	if len(st.arenaIdx)+n > c || 2*(len(st.arenaIdx)-st.start+n) > c {
		st.compact(n)
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
func (p *swa) K(n int) int { return halfBudget(n, p.ratio) }

// halfBudget is the per-half budget k = ⌊n·r/2⌉ of the policies that split
// a caching ratio r between recent and scored tokens: at least 1 for a
// non-empty cache, and 2k ≤ n where n allows.
func halfBudget(n int, r float64) int {
	if n <= 0 {
		return 0
	}
	// The conversion rounds the product before the add, as in Budget.
	k := int(math.Floor(float64(float64(n)*r/2) + 0.5))
	if k < 1 {
		k = 1
	}
	if 2*k > n {
		k = max(n/2, 1)
	}
	return k
}

// Select implements Policy: the union of locally static tokens
// [n−k, n−1] and the top-k earlier positions by local attention sum. The
// returned slice is scratch owned by the layer, valid until the next
// Select on the same layer.
func (p *swa) Select(layer, n int) []int {
	st := layerOf(p.layers, layer)
	if n <= 0 {
		st.restart()
		return nil
	}
	k := p.K(n)
	st.trimTo(k)
	// Globally dynamic: top-k positions before the local window, ranked by
	// the local attention sum S. Positions never observed score zero and
	// lose to any observed position.
	return st.selectTopPlusLocal(st.sum, n-k, k, n, true)
}

// Observe implements Policy, pushing this step's attention row into the
// layer's local-sum window. The indices and weights are copied.
func (p *swa) Observe(layer int, indices []int, weights []float64) {
	st := layerOf(p.layers, layer)
	st.push(indices, weights)
	for i, pos := range indices {
		st.grow(pos + 1)
		st.sum[pos] += weights[i]
	}
}

// layerOf returns layer l's state, panicking when l is outside the layer
// count the policy was built for.
func layerOf[T any](layers []*T, l int) *T {
	if l < 0 || l >= len(layers) {
		panic(fmt.Sprintf("attention: layer %d out of range %d", l, len(layers)))
	}
	return layers[l]
}

func (st *swaLayer) grow(n int) {
	for len(st.sum) < n {
		st.sum = append(st.sum, 0)
	}
}

// restart empties the window, its arena and the sum, keeping their
// buffers for the next sequence.
func (st *swaLayer) restart() {
	st.head, st.count, st.start = 0, 0, 0
	st.arenaIdx, st.arenaW = st.arenaIdx[:0], st.arenaW[:0]
	st.sum = st.sum[:0]
}

// trimTo keeps only the most recent k observed rows in the running sum:
// S = Σ AW[n−k : n−1] from Algorithm 1, maintained incrementally. Expired
// rows become a dead arena prefix, which the next overflowing push drops.
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
}

// compact moves the live rows to the front of the arena, into a new one of
// twice the capacity when they and a next row of n entries would fill
// more than half of the current one.
func (st *swaLayer) compact(n int) {
	idx, w := st.arenaIdx[:0], st.arenaW[:0]
	if need := 2 * (len(st.arenaIdx) - st.start + n); need > cap(idx) {
		c := max(need, 2*cap(idx))
		idx, w = make([]int, 0, c), make([]float64, 0, c)
	}
	st.arenaIdx = append(idx, st.arenaIdx[st.start:]...)
	st.arenaW = append(w, st.arenaW[st.start:]...)
	for i := 0; i < st.count; i++ {
		st.ring[(st.head+i)%len(st.ring)].off -= st.start
	}
	st.start = 0
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
	st := layerOf(p.layers, layer)
	if n <= 0 {
		st.sum = st.sum[:0] // a new sequence: forget the old sums
		return nil
	}
	k := halfBudget(n, p.ratio)
	// No recency epsilon: H2O ranks purely by cumulative mass, which is
	// exactly the stale-hitter behaviour the ablation isolates.
	return st.selectTopPlusLocal(st.sum, n-k, k, n, false)
}

// Observe implements Policy, accumulating into the cumulative sums.
func (p *h2o) Observe(layer int, indices []int, weights []float64) {
	st := layerOf(p.layers, layer)
	for i, pos := range indices {
		for len(st.sum) <= pos {
			st.sum = append(st.sum, 0)
		}
		st.sum[pos] += weights[i]
	}
}

// appendAscending appends from, from+1, …, to−1 to dst.
func appendAscending(dst []int, from, to int) []int {
	for i := from; i < to; i++ {
		dst = append(dst, i)
	}
	return dst
}
