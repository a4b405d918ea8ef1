package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Decoder is a runnable decoder-only transformer with deterministic
// synthetic weights. It is deliberately small — the numeric experiments
// need real softmax attention, KV caching, and quantization-error
// propagation, not billions of parameters; the full-scale configs feed the
// analytic simulator instead.
type Decoder struct {
	Cfg    Config
	Embed  *tensor.Matrix // vocab × hidden token embeddings (tied output head)
	Pos    *tensor.Matrix // maxseq × hidden position embeddings
	Blocks []*Block
	FinalG []float32 // final layer-norm gain
	FinalB []float32 // final layer-norm bias
}

// Block holds one transformer layer's weights.
type Block struct {
	Wq, Wk, Wv, Wo *tensor.Matrix // hidden × hidden
	W1             *tensor.Matrix // hidden × ffn
	W2             *tensor.Matrix // ffn × hidden
	LN1G, LN1B     []float32
	LN2G, LN2B     []float32
}

// NewDecoder builds a decoder with the given shape and deterministic
// weights derived from seed. Hidden must be divisible by heads.
func NewDecoder(cfg Config, seed int64) *Decoder {
	if cfg.Hidden%cfg.Heads != 0 {
		panic(fmt.Sprintf("model: hidden %d not divisible by heads %d", cfg.Hidden, cfg.Heads))
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Decoder{
		Cfg:    cfg,
		Embed:  randMatrix(rng, cfg.Vocab, cfg.Hidden, 1),
		Pos:    randMatrix(rng, cfg.MaxSeq, cfg.Hidden, 0.5),
		FinalG: ones(cfg.Hidden),
		FinalB: make([]float32, cfg.Hidden),
	}
	for range make([]struct{}, cfg.Layers) {
		scale := 1 / math.Sqrt(float64(cfg.Hidden))
		ffnScale := 1 / math.Sqrt(float64(cfg.FFN))
		d.Blocks = append(d.Blocks, &Block{
			Wq:   randMatrix(rng, cfg.Hidden, cfg.Hidden, scale),
			Wk:   randMatrix(rng, cfg.Hidden, cfg.Hidden, scale),
			Wv:   randMatrix(rng, cfg.Hidden, cfg.Hidden, scale),
			Wo:   randMatrix(rng, cfg.Hidden, cfg.Hidden, scale),
			W1:   randMatrix(rng, cfg.Hidden, cfg.FFN, scale),
			W2:   randMatrix(rng, cfg.FFN, cfg.Hidden, ffnScale),
			LN1G: ones(cfg.Hidden), LN1B: make([]float32, cfg.Hidden),
			LN2G: ones(cfg.Hidden), LN2B: make([]float32, cfg.Hidden),
		})
	}
	return d
}

func randMatrix(rng *rand.Rand, rows, cols int, scale float64) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * scale)
	}
	return m
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// State is the per-sequence KV cache: one K and one V matrix per layer,
// rows are tokens in generation order. It also carries the scratch a
// decode step works in, the step's result included, so a step allocates
// nothing.
type State struct {
	K, V []*tensor.Matrix
	Len  int

	h, normed   []float32 // residual stream and its layer-normed copy
	q, k, v     []float32 // the new token's projections
	ctx, proj   []float32 // attention context; Wo and W2 outputs
	ffn, scores []float32 // FFN inner activations; one head's scores
	res         StepResult
}

// NewState returns an empty KV cache for the decoder, with room for
// Cfg.MaxSeq tokens, and the scratch its decode steps reuse.
func (d *Decoder) NewState() *State {
	c := d.Cfg
	s := &State{
		K:      make([]*tensor.Matrix, c.Layers),
		V:      make([]*tensor.Matrix, c.Layers),
		h:      make([]float32, c.Hidden),
		normed: make([]float32, c.Hidden),
		q:      make([]float32, c.Hidden),
		k:      make([]float32, c.Hidden),
		v:      make([]float32, c.Hidden),
		ctx:    make([]float32, c.Hidden),
		proj:   make([]float32, c.Hidden),
		ffn:    make([]float32, c.FFN),
		scores: make([]float32, c.MaxSeq),
		res: StepResult{
			Hidden:      make([]float32, c.Hidden),
			Logits:      make([]float32, c.Vocab),
			AttnWeights: make([][]float64, c.Layers),
			AttnIndices: make([][]int, c.Layers),
		},
	}
	for l := range s.K {
		s.K[l] = tensor.FromSlice(0, c.Hidden, make([]float32, 0, c.MaxSeq*c.Hidden))
		s.V[l] = tensor.FromSlice(0, c.Hidden, make([]float32, 0, c.MaxSeq*c.Hidden))
		s.res.AttnWeights[l] = make([]float64, 0, c.MaxSeq)
		s.res.AttnIndices[l] = make([]int, 0, c.MaxSeq)
	}
	return s
}

// Selector restricts which cached positions a decode step attends to.
// Given the layer and the number of cached tokens n (excluding the current
// token), it returns the cache indices to attend over; the current token
// always attends to itself in addition. A nil Selector is dense attention.
type Selector interface {
	Select(layer, n int) []int
	// Observe receives the post-softmax attention weights for this step,
	// averaged across heads, aligned with the returned indices plus the
	// current token appended last.
	Observe(layer int, indices []int, weights []float64)
}

// StepResult carries the outputs of one decode step. It belongs to the
// State the step ran on and is valid until the next step on that State,
// which overwrites it; a caller that keeps a field past that copies it.
type StepResult struct {
	Hidden []float32 // final hidden state of the new token
	Logits []float32 // vocabulary logits (tied embedding head)
	// AttnWeights[layer] are the head-averaged post-softmax weights over
	// the attended positions (selected cache indices then current token).
	AttnWeights [][]float64
	// AttnIndices[layer] are the cache indices each weight refers to, with
	// State.Len (the current token's new index) appended last.
	AttnIndices [][]int
}

// DecodeStep runs one autoregressive step: embeds token at position
// st.Len, appends the new token's K/V to the cache, attends over the
// (optionally policy-restricted) cache rows in place, and returns hidden
// state and logits. The result is st's and is valid until the next step
// on st. A warmed step allocates nothing (the Selector's own work aside).
//
//alisa:hotpath
func (d *Decoder) DecodeStep(st *State, token int, sel Selector) *StepResult {
	if token < 0 || token >= d.Cfg.Vocab {
		panicBadToken(token, d.Cfg.Vocab)
	}
	if st.Len >= d.Cfg.MaxSeq {
		panicFullState(st.Len, d.Cfg.MaxSeq)
	}
	h := st.h
	copy(h, d.Embed.Row(token))
	pos := d.Pos.Row(st.Len)
	for i := range h {
		h[i] += pos[i]
	}

	res := &st.res
	for l, blk := range d.Blocks {
		copy(st.normed, h)
		tensor.LayerNorm(st.normed, blk.LN1G, blk.LN1B, 1e-5)
		tensor.VecMatInto(st.q, st.normed, blk.Wq)
		tensor.VecMatInto(st.k, st.normed, blk.Wk)
		tensor.VecMatInto(st.v, st.normed, blk.Wv)

		// Select cached positions for this layer; the new token, cache
		// row n once appended, comes last.
		n := st.K[l].Rows
		idx := res.AttnIndices[l][:0]
		if sel != nil {
			idx = append(idx, sel.Select(l, n)...)
		} else {
			for i := 0; i < n; i++ {
				idx = append(idx, i)
			}
		}
		idx = append(idx, st.Len)
		st.K[l].AppendRow(st.k)
		st.V[l].AppendRow(st.v)

		w := d.multiHeadAttend(st.ctx, st.q, st.K[l], st.V[l], idx, res.AttnWeights[l], st.scores)
		tensor.VecMatInto(st.proj, st.ctx, blk.Wo)
		for i := range h {
			h[i] += st.proj[i]
		}
		res.AttnIndices[l], res.AttnWeights[l] = idx, w
		if sel != nil {
			sel.Observe(l, idx, w)
		}

		// Feed-forward with pre-norm residual.
		copy(st.normed, h)
		tensor.LayerNorm(st.normed, blk.LN2G, blk.LN2B, 1e-5)
		tensor.VecMatInto(st.ffn, st.normed, blk.W1)
		relu(st.ffn)
		tensor.VecMatInto(st.proj, st.ffn, blk.W2)
		for i := range h {
			h[i] += st.proj[i]
		}
	}
	st.Len++

	copy(res.Hidden, h)
	tensor.LayerNorm(res.Hidden, d.FinalG, d.FinalB, 1e-5)
	tensor.VecMatTInto(res.Logits, res.Hidden, d.Embed)
	return res
}

// panicBadToken and panicFullState format DecodeStep's panics on its cold
// side.
func panicBadToken(token, vocab int) {
	panic(fmt.Sprintf("model: token %d out of vocab %d", token, vocab))
}

func panicFullState(n, maxSeq int) {
	panic(fmt.Sprintf("model: sequence length %d exceeds max %d", n, maxSeq))
}

// multiHeadAttend computes attention of the single query row against the
// rows idx of keys and vals (both cache×hidden), read in place. It writes
// the hidden-sized context vector into out and returns the head-averaged
// attention weights, one per index, in avg's backing array; scores is
// scratch for one head's scores, at least len(idx) long.
//
//alisa:hotpath
func (d *Decoder) multiHeadAttend(out, query []float32, keys, vals *tensor.Matrix, idx []int, avg []float64, scores []float32) []float64 {
	heads := d.Cfg.Heads
	dh := d.Cfg.HeadDim()
	hidden := keys.Cols
	t := len(idx)
	clear(out)
	avg = slices.Grow(avg[:0], t)[:t]
	clear(avg)
	scores = scores[:t]
	scale := 1 / math.Sqrt(float64(dh))
	for hd := 0; hd < heads; hd++ {
		lo := hd * dh
		qh := query[lo : lo+dh]
		for i, r := range idx {
			krow := keys.Data[r*hidden+lo : r*hidden+lo+dh]
			scores[i] = float32(tensor.Dot(qh, krow) * scale)
		}
		tensor.SoftmaxInPlace(scores)
		for i, r := range idx {
			w := float64(scores[i])
			avg[i] += w
			vrow := vals.Data[r*hidden+lo : r*hidden+lo+dh]
			for j := 0; j < dh; j++ {
				out[lo+j] += float32(w * float64(vrow[j]))
			}
		}
	}
	inv := 1 / float64(heads)
	for i := range avg {
		avg[i] *= inv
	}
	return avg
}

func relu(v []float32) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// ForwardFull runs the whole sequence through the decoder without KV
// caching — every step recomputes attention over the full prefix. It
// returns the logits of the final position and serves as the ground truth
// the KV-cached path must match.
func (d *Decoder) ForwardFull(tokens []int) []float32 {
	s := len(tokens)
	if s == 0 {
		panic("model: empty sequence")
	}
	x := tensor.New(s, d.Cfg.Hidden)
	for i, tok := range tokens {
		copy(x.Row(i), d.Embed.Row(tok))
		pos := d.Pos.Row(i)
		row := x.Row(i)
		for j := range row {
			row[j] += pos[j]
		}
	}

	dh := d.Cfg.HeadDim()
	scale := 1 / math.Sqrt(float64(dh))
	for _, blk := range d.Blocks {
		normed := x.Clone()
		for i := 0; i < s; i++ {
			tensor.LayerNorm(normed.Row(i), blk.LN1G, blk.LN1B, 1e-5)
		}
		q := tensor.MatMul(normed, blk.Wq)
		k := tensor.MatMul(normed, blk.Wk)
		v := tensor.MatMul(normed, blk.Wv)

		attnOut := tensor.New(s, d.Cfg.Hidden)
		scores := make([]float32, s)
		for hd := 0; hd < d.Cfg.Heads; hd++ {
			lo := hd * dh
			for i := 0; i < s; i++ {
				qh := q.Row(i)[lo : lo+dh]
				for j := 0; j <= i; j++ {
					scores[j] = float32(tensor.Dot(qh, k.Row(j)[lo:lo+dh]) * scale)
				}
				tensor.SoftmaxInPlace(scores[:i+1])
				orow := attnOut.Row(i)
				for j := 0; j <= i; j++ {
					w := float64(scores[j])
					vrow := v.Row(j)[lo : lo+dh]
					for c := 0; c < dh; c++ {
						orow[lo+c] += float32(w * float64(vrow[c]))
					}
				}
			}
		}
		proj := tensor.MatMul(attnOut, blk.Wo)
		x.Add(proj)

		normed2 := x.Clone()
		for i := 0; i < s; i++ {
			tensor.LayerNorm(normed2.Row(i), blk.LN2G, blk.LN2B, 1e-5)
		}
		f := tensor.MatMul(normed2, blk.W1)
		relu(f.Data)
		f = tensor.MatMul(f, blk.W2)
		x.Add(f)
	}

	final := append([]float32(nil), x.Row(s-1)...)
	tensor.LayerNorm(final, d.FinalG, d.FinalB, 1e-5)
	logits := tensor.MatMulT(tensor.FromSlice(1, d.Cfg.Hidden, final), d.Embed)
	return logits.Data
}

// SmallConfig returns a laptop-scale decoder config suitable for the
// numeric experiments and tests.
func SmallConfig() Config {
	return Config{
		Name: "tiny-decoder", Family: "synthetic",
		Layers: 4, Hidden: 64, Heads: 4, FFN: 128, Vocab: 96, MaxSeq: 256,
	}
}
