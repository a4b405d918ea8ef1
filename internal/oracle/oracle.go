// Package oracle generates synthetic attention-weight processes with the
// statistical structure the paper observes in real LLMs (Fig. 3 and 5):
// heavy-tailed per-token importance, a locality bias toward recent tokens,
// an attention-sink first token, and a small set of persistent but
// *drifting* heavy hitters. It stands in for running OPT/LLaMA/Pythia
// checkpoints, which the reproduction environment cannot host.
//
// The substitution is mechanism-preserving: the paper's accuracy argument
// is that SWA's retained token set captures nearly all attention mass
// (Fig. 4, Spearman ρ ≈ 1), and that argument only depends on the mass
// distribution — concentrated, local-biased, with slowly moving heavy
// hitters — not on the language itself. Restricting a softmax to a subset
// of positions and renormalising is exactly what sparse attention computes
// for fixed scores, so masked rows derived from the dense row are exact,
// not approximate, at the single-step level.
//
// Each layer runs on its own deterministic random stream, so layers are
// mutually independent and Evaluate drives them on parallel goroutines;
// EvaluateSequential is the retained single-goroutine reference the
// determinism tests compare against.
package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/attention"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Spec parameterises an attention process. A Spec must not be mutated
// after being handed to New or Evaluate.
type Spec struct {
	Layers int
	Seed   int64

	// Concentration scales the per-token importance logits; higher values
	// concentrate the softmax and raise attention-weight sparsity. This is
	// the model-size knob: the paper's Fig. 3 shows larger models are
	// sparser.
	Concentration float64

	// LocalityWeight and LocalityTau shape the recency boost
	// LocalityWeight · exp(−distance/LocalityTau).
	LocalityWeight float64
	LocalityTau    float64

	// SinkBoost elevates position 0, the attention-sink token.
	SinkBoost float64

	// HitterRate is the probability a newly generated token becomes a
	// heavy hitter; HitterBoost its logit strength; HitterLifetime the
	// geometric-mean number of steps it stays hot before drifting away.
	HitterRate     float64
	HitterBoost    float64
	HitterLifetime int
}

// DefaultSpec returns the base process used when no model calibration is
// requested: mid-sized-model statistics.
func DefaultSpec(layers int, seed int64) Spec {
	return Spec{
		Layers:         layers,
		Seed:           seed,
		Concentration:  2.4,
		LocalityWeight: 2.0,
		LocalityTau:    6,
		SinkBoost:      1.5,
		HitterRate:     0.06,
		HitterBoost:    3.2,
		HitterLifetime: 48,
	}
}

// SpecForModel calibrates a process to a model configuration so that the
// measured dense attention sparsity lands where Fig. 3 reports it:
// roughly 85 % for ~7 B models, ~90 % for ~13 B, ~95 % for ~30 B (density
// of OPT-30B ≈ 3× lower than OPT-6.7B).
func SpecForModel(cfg model.Config, seed int64) Spec {
	s := DefaultSpec(cfg.Layers, seed)
	params := float64(cfg.Params())
	switch {
	case params >= 25e9:
		s.Concentration = 3.6
		s.HitterBoost = 4.4
	case params >= 10e9:
		s.Concentration = 2.9
		s.HitterBoost = 3.7
	default:
		s.Concentration = 2.4
		s.HitterBoost = 3.2
	}
	return s
}

// Process is a running attention-weight generator. Each call to Next
// advances one decode step and returns, per layer, the dense post-softmax
// attention row of the new token over positions 0..t (self last).
type Process struct {
	Spec  Spec
	step  int
	layer []*layerState
}

// layerState is one layer's independent generator: its own random stream,
// the per-token state, and the incrementally maintained locality term.
// The locality boost W·exp(−(t−i)/τ) decays by the constant factor
// exp(−1/τ) each step, so it is maintained with one multiply per position
// instead of a math.Exp call.
type layerState struct {
	rng     *rand.Rand
	tempo   float64 // per-layer concentration jitter
	decay   float64 // exp(−1/τ), the per-step locality decay factor
	static  []float64
	hitter  []float64 // current hitter boost per token (0 when cold)
	expires []int     // step at which the hitter boost lapses
	loc     []float64 // locality boost per token, decayed in place
}

// New returns a Process for the given spec.
func New(spec Spec) *Process {
	if spec.Layers <= 0 {
		panic(fmt.Sprintf("oracle: layers must be positive, got %d", spec.Layers))
	}
	p := &Process{
		Spec:  spec,
		layer: make([]*layerState, spec.Layers),
	}
	// Layers differ in sharpness (Fig. 3 shows per-layer spread) and each
	// gets its own random stream; both derive deterministically from the
	// spec seed, so layers can advance independently — the property the
	// parallel Evaluate relies on.
	master := rand.New(rand.NewSource(spec.Seed))
	decay := localityDecay(spec.LocalityTau)
	for i := range p.layer {
		// The conversion rounds the product before the add, so no
		// platform fuses the two into one multiply-add with a different
		// rounding.
		tempo := 0.75 + float64(0.5*master.Float64())
		p.layer[i] = &layerState{
			rng:   rand.New(rand.NewSource(master.Int63())),
			tempo: tempo,
			decay: decay,
		}
	}
	return p
}

func localityDecay(tau float64) float64 {
	if tau <= 0 {
		return 0
	}
	return math.Exp(-1 / tau)
}

// Step reports how many steps the process has generated.
func (p *Process) Step() int { return p.step }

// Next advances one decode step and returns one dense attention row per
// layer. Row l has length Step() (positions 0..t inclusive of the new
// token, which is last) and sums to 1. Each call allocates fresh rows;
// hot paths should use NextInto.
func (p *Process) Next() [][]float64 {
	return p.NextInto(make([][]float64, p.Spec.Layers))
}

// NextInto is the allocation-free variant of Next: it reuses the backing
// arrays of rows (grown as needed) and returns the slice resized to the
// layer count. The returned rows are valid until the next NextInto call.
func (p *Process) NextInto(rows [][]float64) [][]float64 {
	for len(rows) < p.Spec.Layers {
		rows = append(rows, nil)
	}
	rows = rows[:p.Spec.Layers]
	for l, st := range p.layer {
		rows[l] = st.advance(&p.Spec, p.step, rows[l])
	}
	p.step++
	return rows
}

// reserve pre-sizes the per-token state for a run of the given length so
// the append-per-step in advance never regrows mid-run.
func (st *layerState) reserve(steps int) {
	if cap(st.static) >= steps {
		return
	}
	st.static = append(make([]float64, 0, steps), st.static...)
	st.hitter = append(make([]float64, 0, steps), st.hitter...)
	st.expires = append(make([]int, 0, steps), st.expires...)
	st.loc = append(make([]float64, 0, steps), st.loc...)
}

// advance generates the layer's dense attention row for decode step t into
// dst's backing array (grown as needed) and returns it with length t+1.
func (st *layerState) advance(spec *Spec, t int, dst []float64) []float64 {
	// Birth of token t on this layer. The static part of its logit —
	// concentration-scaled importance plus the position-0 sink boost —
	// never changes, so it is computed once here. The conversion rounds
	// the product before the boost's add, as in New.
	stat := float64(spec.Concentration * st.tempo * st.rng.NormFloat64())
	if t == 0 {
		stat += spec.SinkBoost
	}
	st.static = append(st.static, stat)
	st.hitter = append(st.hitter, 0)
	st.expires = append(st.expires, 0)
	if st.rng.Float64() < spec.HitterRate {
		st.hitter[t] = spec.HitterBoost * (0.5 + st.rng.ExpFloat64())
		life := 1 + int(float64(spec.HitterLifetime)*st.rng.ExpFloat64())
		st.expires[t] = t + life
	}

	// One multiply per position replaces the per-step math.Exp: the
	// locality term decays by the constant factor exp(−1/τ) each step.
	for i := range st.loc {
		st.loc[i] *= st.decay
	}
	st.loc = append(st.loc, spec.LocalityWeight)

	if cap(dst) < t+1 {
		dst = make([]float64, t+1, max(t+1, 2*cap(dst)))
	} else {
		dst = dst[:t+1]
	}
	for i := 0; i <= t; i++ {
		if st.expires[i] <= t {
			st.hitter[i] = 0
		}
		dst[i] = st.static[i] + st.hitter[i] + st.loc[i]
	}
	softmaxInPlace(dst)
	return dst
}

// softmaxInPlace applies a numerically stable softmax to v.
func softmaxInPlace(v []float64) {
	maxv := math.Inf(-1)
	for _, x := range v {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - maxv)
		v[i] = e
		sum += e
	}
	for i := range v {
		v[i] /= sum
	}
}

// MaskRow restricts the dense row to the retained cache indices plus the
// current token (the row's last position) and renormalises — exactly the
// distribution a sparse-attention softmax over the same scores produces.
// It returns the retained global indices (current token last) and their
// renormalised weights.
func MaskRow(dense []float64, selected []int) (indices []int, weights []float64) {
	indices, weights, _ = maskRowInto(dense, selected, nil, nil)
	return indices, weights
}

// maskRowInto is the scratch-reusing core of MaskRow. It writes the
// retained indices (current token last) into idx[:0] and their
// renormalised weights into w[:0], and additionally returns the retained
// raw attention mass (the pre-normalisation weight sum).
func maskRowInto(dense []float64, selected []int, idx []int, w []float64) ([]int, []float64, float64) {
	cur := len(dense) - 1
	idx = append(idx[:0], selected...)
	idx = append(idx, cur)
	w = w[:0]
	var sum float64
	for _, i := range idx {
		w = append(w, dense[i])
		sum += dense[i]
	}
	if sum > 0 {
		for i := range w {
			w[i] /= sum
		}
	}
	return idx, w, sum
}

// Result aggregates an Evaluate run.
type Result struct {
	PolicyName string
	Steps      int

	// MeanRecall is the average fraction of dense attention mass the
	// policy's retained sets captured, across steps and layers.
	MeanRecall float64
	// RecallPerStep averages recall across layers at each step.
	RecallPerStep []float64
	// DenseSparsityPerStep and MaskedSparsityPerStep measure attention
	// weight sparsity (1 %-of-row-max threshold) of the dense row and of
	// the policy-masked row embedded back into a full-length row.
	DenseSparsityPerStep  []float64
	MaskedSparsityPerStep []float64
	// AvgScore[i] is the average attention weight position i received
	// under the policy (masked rows); DenseAvgScore is the same for the
	// dense rows. Both average over the steps at which position i existed
	// and are the series behind the paper's Fig. 4 distributions.
	AvgScore      []float64
	DenseAvgScore []float64
}

// layerAccum collects one layer's per-step measurements; merge combines
// the layers in deterministic layer order, so parallel and sequential
// evaluation produce bit-identical Results. A recall-only accumulator
// (MeanRecalls) holds the recall series alone.
type layerAccum struct {
	recall        []float64
	denseSp       []float64
	maskedSp      []float64
	avgScore      []float64
	denseAvgScore []float64
}

func newLayerAccum(steps int, full bool) *layerAccum {
	acc := &layerAccum{recall: make([]float64, steps)}
	if full {
		acc.denseSp = make([]float64, steps)
		acc.maskedSp = make([]float64, steps)
		acc.avgScore = make([]float64, steps)
		acc.denseAvgScore = make([]float64, steps)
	}
	return acc
}

// Evaluate runs a policy against a fresh process for the given number of
// steps, feeding the policy masked attention rows exactly as a sparse
// decoder would, and collecting recall, sparsity, and score-distribution
// measurements. It is EvaluateAll with one policy.
//
// Layers evaluate concurrently, one goroutine per layer: every layer has
// its own random stream and policies confine per-layer state to the layer
// index (see attention.Policy). Results merge in deterministic layer
// order, so Evaluate returns bit-identical results to the sequential
// reference EvaluateSequential.
func Evaluate(spec Spec, pol attention.Policy, steps int) *Result {
	return EvaluateAll(spec, []attention.Policy{pol}, steps)[0]
}

// EvaluateAll returns what Evaluate(spec, pols[i], steps) returns, bit for
// bit, for every policy. It evaluates all the policies against the *same*
// attention process, so row generation and the dense row's measurements
// are paid once; each policy observes only its own masked rows. Policies
// must be distinct instances; they may be new or used, since the first
// step's Select(l, 0) restarts each layer (see attention.Policy).
func EvaluateAll(spec Spec, pols []attention.Policy, steps int) []*Result {
	// context.Background never cancels, so the error is always nil.
	per, _ := evalLayers(context.Background(), spec, pols, steps, true)
	results := make([]*Result, len(pols))
	for pi, pol := range pols {
		results[pi] = mergeLayers(pol.Name(), steps, per[pi])
	}
	return results
}

// EvaluateContext is Evaluate with cancellation: every layer checks ctx
// once per decode step and the evaluation aborts with ctx.Err() when
// cancelled. An accuracy evaluation has no meaningful partial result, so
// a cancelled evaluation returns a nil Result.
func EvaluateContext(ctx context.Context, spec Spec, pol attention.Policy, steps int) (*Result, error) {
	per, err := evalLayers(ctx, spec, []attention.Policy{pol}, steps, true)
	if err != nil {
		return nil, err
	}
	return mergeLayers(pol.Name(), steps, per[0]), nil
}

// MeanRecalls returns what Evaluate(spec, pols[i], steps).MeanRecall
// returns, bit for bit, for every policy, and measures nothing else. Like
// EvaluateAll it runs every policy against one shared process, under the
// same rules for the policies; it builds no sparsity series, score
// averages or Results, and a policy that does not observe (see
// attention.Observes) costs one sum over its selection per step. Fig. 8,
// which reads only the mean recall, runs on it.
func MeanRecalls(spec Spec, pols []attention.Policy, steps int) []float64 {
	// context.Background never cancels, so the error is always nil.
	per, _ := evalLayers(context.Background(), spec, pols, steps, false)
	recalls := make([]float64, len(pols))
	for pi := range pols {
		recalls[pi] = meanRecall(steps, per[pi])
	}
	return recalls
}

// evalLayers drives every layer of a fresh process for spec through
// evalLayerFast on its own goroutine, re-raises a panic on any layer once
// all have stopped, and returns each policy's accumulators in layer
// order, or ctx.Err() when ctx was cancelled.
func evalLayers(ctx context.Context, spec Spec, pols []attention.Policy, steps int, full bool) ([][]*layerAccum, error) {
	proc := New(spec)
	per := make([][]*layerAccum, spec.Layers) // [layer][policy]
	panics := make([]any, spec.Layers)
	var wg sync.WaitGroup
	for l := 0; l < spec.Layers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[l] = r
				}
			}()
			per[l] = evalLayerFast(ctx, &proc.Spec, proc.layer[l], pols, l, steps, full)
		}(l)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	byPolicy := make([][]*layerAccum, len(pols))
	for pi := range byPolicy {
		byPolicy[pi] = make([]*layerAccum, spec.Layers)
		for l := range per {
			byPolicy[pi][l] = per[l][pi]
		}
	}
	return byPolicy, nil
}

// EvaluateSequential is the retained reference implementation of Evaluate:
// one goroutine, straightforward per-step allocations, and the public
// metrics helpers instead of the fused scratch-reusing kernels. The
// determinism regression tests assert Evaluate reproduces its results
// exactly; it is also the ground truth for the golden values recorded in
// EXPERIMENTS.md.
func EvaluateSequential(spec Spec, pol attention.Policy, steps int) *Result {
	proc := New(spec)
	per := make([]*layerAccum, spec.Layers)
	for l := 0; l < spec.Layers; l++ {
		per[l] = evalLayerReference(&proc.Spec, proc.layer[l], pol, l, steps)
	}
	return mergeLayers(pol.Name(), steps, per)
}

// evalLayerFast is the allocation-free per-layer evaluation loop: the
// dense row, mask index/weight pairs, and selection scratch all live in
// step-scoped buffers reused across the whole run, the masked-row
// sparsity is computed directly from the retained weights instead of
// materialising the full-length row, and the policy-independent dense-row
// measurements are computed once per step and shared across all policies.
// Unless full is set it measures recall alone, and a policy that does not
// observe gets no masked row: its retained mass is summed straight from
// the dense row.
//
//alisa:hotpath
func evalLayerFast(ctx context.Context, spec *Spec, st *layerState, pols []attention.Policy, l, steps int, full bool) []*layerAccum {
	accs := make([]*layerAccum, len(pols))
	masks := make([]bool, len(pols)) // whether anything reads the masked row
	for i, pol := range pols {
		accs[i] = newLayerAccum(steps, full)
		masks[i] = full || attention.Observes(pol)
	}
	st.reserve(steps)
	row := make([]float64, 0, steps)
	var denseAvg []float64
	if full {
		denseAvg = make([]float64, steps)
	}
	var idxBuf []int
	var wBuf []float64
	for t := 0; t < steps; t++ {
		if ctx.Err() != nil {
			// Cancelled mid-evaluation: the partial accumulators are
			// meaningless, the caller discards everything.
			return nil
		}
		row = st.advance(spec, t, row)

		var total float64
		for _, w := range row {
			total += w
		}
		var denseSp float64
		if full {
			denseSp = metrics.Sparsity(row, 0.01)
			for i, w := range row {
				denseAvg[i] += w
			}
		}

		for pi, pol := range pols {
			acc := accs[pi]
			sel := pol.Select(l, t) // t cached tokens before this step

			var kept float64
			if masks[pi] {
				idxBuf, wBuf, kept = maskRowInto(row, sel, idxBuf, wBuf)
			} else {
				// maskRowInto's retained mass, summed in its order, with
				// nothing copied.
				for _, i := range sel {
					kept += row[i]
				}
				kept += row[t]
			}

			// Recall over the cached positions plus current token. Retained
			// indices are distinct by construction (ascending policy indices
			// below t, then t itself), so the raw retained mass over total
			// mass equals metrics.MassRecall.
			if total == 0 {
				acc.recall[t] = 1
			} else {
				acc.recall[t] = kept / total
			}

			if !masks[pi] {
				continue
			}
			if full {
				acc.denseSp[t] = denseSp
				acc.maskedSp[t] = metrics.SparsityMasked(wBuf, len(row), 0.01)
				for i, idx := range idxBuf {
					acc.avgScore[idx] += wBuf[i]
				}
			}
			pol.Observe(l, idxBuf, wBuf)
		}
	}
	if full {
		for _, acc := range accs {
			copy(acc.denseAvgScore, denseAvg)
		}
	}
	return accs
}

// evalLayerReference mirrors evalLayerFast with fresh allocations per step
// and the original public helpers (MaskRow, metrics.MassRecall,
// materialised masked rows), making it the simple-but-slow oracle the
// fused hot path is validated against.
func evalLayerReference(spec *Spec, st *layerState, pol attention.Policy, l, steps int) *layerAccum {
	acc := newLayerAccum(steps, true)
	for t := 0; t < steps; t++ {
		row := st.advance(spec, t, nil)
		sel := pol.Select(l, t)
		indices, weights := MaskRow(row, sel)

		acc.recall[t] = metrics.MassRecall(row, indices)
		acc.denseSp[t] = metrics.Sparsity(row, 0.01)
		masked := make([]float64, len(row))
		for i, idx := range indices {
			masked[idx] = weights[i]
		}
		acc.maskedSp[t] = metrics.Sparsity(masked, 0.01)

		for i, idx := range indices {
			acc.avgScore[idx] += weights[i]
		}
		for i, w := range row {
			acc.denseAvgScore[i] += w
		}
		pol.Observe(l, indices, weights)
	}
	return acc
}

// mergeLayers combines per-layer accumulators into a Result. The merge is
// fully deterministic: per-step statistics sum in ascending layer order
// and per-position scores sum layer-by-layer, independent of the order
// the layer goroutines finished in.
func mergeLayers(policyName string, steps int, per []*layerAccum) *Result {
	layers := float64(len(per))
	res := &Result{
		PolicyName:            policyName,
		Steps:                 steps,
		RecallPerStep:         make([]float64, steps),
		DenseSparsityPerStep:  make([]float64, steps),
		MaskedSparsityPerStep: make([]float64, steps),
		AvgScore:              make([]float64, steps),
		DenseAvgScore:         make([]float64, steps),
	}
	for t := 0; t < steps; t++ {
		var stepRecall, stepDenseSp, stepMaskedSp float64
		for _, acc := range per {
			stepRecall += acc.recall[t]
			stepDenseSp += acc.denseSp[t]
			stepMaskedSp += acc.maskedSp[t]
		}
		res.RecallPerStep[t] = stepRecall / layers
		res.DenseSparsityPerStep[t] = stepDenseSp / layers
		res.MaskedSparsityPerStep[t] = stepMaskedSp / layers
	}
	for i := 0; i < steps; i++ {
		// Position i exists from step i on, on every layer.
		count := layers * float64(steps-i)
		var score, dense float64
		for _, acc := range per {
			score += acc.avgScore[i]
			dense += acc.denseAvgScore[i]
		}
		res.AvgScore[i] = score / count
		res.DenseAvgScore[i] = dense / count
	}
	res.MeanRecall = meanRecall(steps, per)
	return res
}

// meanRecall averages the layers' per-step recalls, summing step by step
// in layer order.
func meanRecall(steps int, per []*layerAccum) float64 {
	var sum float64
	for t := 0; t < steps; t++ {
		for _, acc := range per {
			sum += acc.recall[t]
		}
	}
	return sum / (float64(steps) * float64(len(per)))
}

// SpearmanVsDense computes the Spearman rank correlation between the
// policy's average score distribution and the dense distribution — the ρ
// the paper reports under each panel of Fig. 4.
func (r *Result) SpearmanVsDense() (float64, error) {
	return metrics.Spearman(r.AvgScore, r.DenseAvgScore)
}

// AttentionMap generates the average dense attention weight map for a
// sequence of the given length: entry (i, j) is the weight position j
// received when decoding position i, averaged across layers (paper
// Fig. 5). The upper triangle is zero by causality.
func AttentionMap(spec Spec, seqLen int) [][]float64 {
	proc := New(spec)
	m := make([][]float64, seqLen)
	var rows [][]float64
	for i := range m {
		m[i] = make([]float64, seqLen)
		rows = proc.NextInto(rows)
		for _, row := range rows {
			for j, w := range row {
				m[i][j] += w
			}
		}
		for j := range m[i] {
			m[i][j] /= float64(len(rows))
		}
	}
	return m
}
