// Package costmodel converts transformer operations into simulated
// execution times on a memsim hardware profile using a roofline model: an
// operation takes max(flops / attainable FLOPS, bytes / bandwidth) plus a
// fixed kernel-launch latency.
//
// Two second-order effects the paper measures are modelled explicitly:
//
//   - GPU under-utilisation for small operands (Fig. 11's FLOPS drop): the
//     attainable-FLOPS term degrades linearly below a saturation size, and
//     the launch latency keeps tiny kernels from shrinking to zero, so
//     "execution time does not decrease proportionally as KV sparsity
//     increases".
//   - Batched attention reads each sequence's own KV tensors, so KV bytes
//     scale with batch × attended tokens × hidden — the memory-bound term
//     that makes attention I/O-dominated, per §III-A.
package costmodel

import (
	"slices"

	"repro/internal/memsim"
	"repro/internal/model"
)

// Kernel-launch latencies per operation, seconds. Tiny ops bottom out here.
const launchLatency = 4e-6

// sparseBookkeeping is the per-layer per-step framework cost of token-level
// sparsity: building gather indices, updating the local attention sums, and
// managing the token-level cache. ALISA's implementation sits on FlexGen +
// HuggingFace (§VI-A), where this host-side work is a real, roughly
// constant per-layer charge.
const sparseBookkeeping = 100e-6

// Sample is the outcome of costing one operation.
type Sample struct {
	Seconds float64
	FLOPs   int64
	Bytes   int64
}

// EffFLOPS returns the achieved FLOP/s (the number printed inside the
// bars of Fig. 11). Zero-time samples report 0.
func (s Sample) EffFLOPS() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.FLOPs) / s.Seconds
}

// add accumulates another sample into s.
func (s *Sample) add(o Sample) {
	s.Seconds += o.Seconds
	s.FLOPs += o.FLOPs
	s.Bytes += o.Bytes
}

// Cost evaluates operation timings against a hardware profile.
//
// Build one with New, which precomputes the per-profile constant products
// the hot-path methods would otherwise rebuild on every call (peak GEMM
// FLOPS, the elementwise FLOPS ceiling, the scatter-penalised gather
// bandwidth). Methods take *Cost, so the per-step costing calls share one
// Cost instead of copying the profile into every call.
type Cost struct {
	Prof memsim.Profile

	gemmPeak  float64 // PeakFLOPS · GEMMUtil
	vecPeak   float64 // PeakFLOPS · 0.05 (elementwise compute ceiling)
	scatterBW float64 // HBMBandwidth · scatterEff
}

// scatterEff discounts gather bandwidth for irregular reads.
const scatterEff = 0.7

// New returns a cost model over the profile with the per-profile
// constants hoisted.
func New(p memsim.Profile) Cost {
	return Cost{
		Prof:      p,
		gemmPeak:  p.PeakFLOPS * p.GEMMUtil,
		vecPeak:   p.PeakFLOPS * 0.05,
		scatterBW: p.HBMBandwidth * scatterEff,
	}
}

// attainable returns the FLOP/s a GEMM with the given output size can
// achieve: full GEMMUtil·Peak once the output saturates the GPU, degrading
// linearly below SaturationElems with a floor (tiny ops cannot fill the
// machine).
func (c *Cost) attainable(outputElems int64) float64 {
	frac := 1.0
	if sat := c.Prof.SaturationElems; sat > 0 && float64(outputElems) < sat {
		frac = float64(outputElems) / sat
		if frac < 0.02 {
			frac = 0.02
		}
	}
	return c.gemmPeak * frac
}

// GEMM costs an m×k · k×n matrix multiply at the given element width with
// operands read once and the result written once.
func (c *Cost) GEMM(m, k, n int64, bytesPerElem int) Sample {
	flops := 2 * m * k * n
	bytes := (m*k + k*n + m*n) * int64(bytesPerElem)
	tCompute := float64(flops) / c.attainable(m*n)
	tMemory := float64(bytes) / c.Prof.HBMBandwidth
	return Sample{Seconds: maxf(tCompute, tMemory) + launchLatency, FLOPs: flops, Bytes: bytes}
}

// BatchedGEMV costs batch independent vector-matrix products v(1×k)·M(k×n)
// where every sequence has its own M — the decode-attention shape. Memory
// traffic is dominated by reading all batch matrices.
func (c *Cost) BatchedGEMV(batch, k, n int64, bytesPerElem int) Sample {
	flops := 2 * batch * k * n
	bytes := batch * (k + k*n + n) * int64(bytesPerElem)
	tCompute := float64(flops) / c.attainable(batch*n)
	tMemory := float64(bytes) / c.Prof.HBMBandwidth
	return Sample{Seconds: maxf(tCompute, tMemory) + launchLatency, FLOPs: flops, Bytes: bytes}
}

// Elementwise costs a streaming pass over n elements with flopsPerElem
// arithmetic each — softmax, layernorm, residual adds. vectorEff scales the
// achievable bandwidth (1 = streaming-friendly).
func (c *Cost) elementwise(n int64, flopsPerElem, bytesPerElem int, vectorEff float64) Sample {
	flops := n * int64(flopsPerElem)
	bytes := 2 * n * int64(bytesPerElem) // read + write
	tCompute := float64(flops) / c.vecPeak
	tMemory := float64(bytes) / (c.Prof.HBMBandwidth * vectorEff)
	return Sample{Seconds: maxf(tCompute, tMemory) + launchLatency, FLOPs: flops, Bytes: bytes}
}

// Elementwise costs a streaming-friendly elementwise pass.
func (c *Cost) Elementwise(n int64, flopsPerElem, bytesPerElem int) Sample {
	return c.elementwise(n, flopsPerElem, bytesPerElem, 1)
}

// Gather costs packing n sparse rows of rowBytes each into a dense tensor
// (scattered read + dense write), the "sparse KV tensors" bar of Fig. 11.
func (c *Cost) Gather(n int64, rowBytes int64) Sample {
	bytes := 2 * n * rowBytes
	return Sample{
		Seconds: float64(bytes)/c.scatterBW + launchLatency,
		Bytes:   bytes,
	}
}

// Quantize costs an INT8 quantize or dequantize pass over bytes of FP16
// data: one streaming read, one half-width write, light arithmetic.
func (c *Cost) Quantize(fp16Bytes int64) Sample {
	bytes := fp16Bytes + fp16Bytes/2
	return Sample{Seconds: float64(bytes)/c.Prof.HBMBandwidth + launchLatency, Bytes: bytes}
}

// PrefixReuse costs wiring a cached prefix's KV into a newly admitted
// sequence: one streaming HBM read of the shared blocks and one write
// into the sequence's private tensors, plus a launch. Orders of
// magnitude cheaper than re-prefilling the same tokens — that gap is
// the whole prefix-cache payoff — but not free, so a cache hit still
// charges bandwidth proportional to the reused bytes.
func (c *Cost) PrefixReuse(kvBytes int64) Sample {
	bytes := 2 * kvBytes
	return Sample{Seconds: float64(bytes)/c.Prof.HBMBandwidth + launchLatency, Bytes: bytes}
}

// AttnConfig describes one attention-module invocation.
type AttnConfig struct {
	Batch    int
	Hidden   int
	Heads    int
	Attended int // tokens attended per sequence (selected + current)
	BytesKV  int // element width of KV operands (2 = FP16)
	// LocalWindow > 0 enables SWA accounting: the local-attention-sum and
	// sparse-KV gather overheads of Algorithm 1.
	LocalWindow int
}

// AttnBreakdown is the per-operation timing of one attention module — the
// bars of Fig. 11.
type AttnBreakdown struct {
	QProj    Sample // Q/K/V/O projections (weight GEMMs)
	QKT      Sample // query · gathered-keysᵀ
	LocalSum Sample // SWA local attention sum (zero for dense)
	Gather   Sample // sparse-KV packing (zero for dense)
	Softmax  Sample
	AV       Sample // attention-weights · values
}

// Total returns the module's end-to-end time.
func (b AttnBreakdown) Total() float64 {
	return b.QProj.Seconds + b.QKT.Seconds + b.LocalSum.Seconds +
		b.Gather.Seconds + b.Softmax.Seconds + b.AV.Seconds
}

// Attention costs a single-step (one new token per sequence) attention
// module under the configuration.
func (c *Cost) Attention(cfg AttnConfig) AttnBreakdown {
	b := int64(cfg.Batch)
	h := int64(cfg.Hidden)
	sel := int64(cfg.Attended)
	kvb := cfg.BytesKV

	var out AttnBreakdown
	// Weight projections are shared across the batch: one h×4h GEMM.
	out.QProj = c.GEMM(b, h, 4*h, 2)
	// Per-sequence score and context products: every sequence reads its own
	// sel×h keys and values.
	out.QKT = c.BatchedGEMV(b, h, sel, kvb)
	out.Softmax = c.Elementwise(b*int64(cfg.Heads)*sel, 5, 2)
	out.AV = c.BatchedGEMV(b, sel, h, kvb)
	if cfg.LocalWindow > 0 {
		// Local attention sum: summing the last LocalWindow head-reduced
		// attention rows of length ≈ sel per sequence; a low-arithmetic
		// vector op with poor data reuse ("vector vs. matrix operation",
		// Fig. 11 discussion).
		out.LocalSum = c.elementwise(b*int64(cfg.LocalWindow)*sel, 1, 4, 0.2)
		// Gather K and V rows for the selected tokens into dense tensors.
		out.Gather = c.Gather(b*sel, 2*h*int64(kvb))
	}
	return out
}

// attnSeconds is Attention(cfg).Total() for a batch of b sequences of
// hidden size h and heads heads, each attending to sel tokens at kvb
// bytes per KV element, with SWA window `window` (0 for dense) and
// projection time qproj: the same six Seconds terms, added in Total's
// order, without building the breakdown's FLOP and byte counts the
// decode-time costing never reads. A zero window switches the SWA terms
// off, as LocalWindow does, even on a sparse step (sel = 1).
func (c *Cost) attnSeconds(qproj float64, b, h, heads, sel int64, kvb int, window int64) float64 {
	t := qproj + c.BatchedGEMV(b, h, sel, kvb).Seconds
	if window > 0 {
		t += c.elementwise(b*window*sel, 1, 4, 0.2).Seconds
		t += c.Gather(b*sel, 2*h*int64(kvb)).Seconds
	}
	t += c.Elementwise(b*heads*sel, 5, 2).Seconds
	return t + c.BatchedGEMV(b, sel, h, kvb).Seconds
}

// FFNTime costs the feed-forward block for one step of a batch.
func (c *Cost) FFNTime(batch, hidden, ffn int, gated bool) Sample {
	mats := 2
	if gated {
		mats = 3
	}
	s := c.GEMM(int64(batch), int64(hidden), int64(ffn), 2)
	var total Sample
	for i := 0; i < mats; i++ {
		total.add(s)
	}
	return total
}

// DecodeLayerTime returns the MHA and FFN times for one decode step of one
// layer at the given attended-token count.
func (c *Cost) DecodeLayerTime(cfg *model.Config, batch, attended, kvBytes int, swa bool) (mha, ffn float64) {
	b, h := int64(batch), int64(cfg.Hidden)
	var window int64
	if swa {
		window = int64(attended / 2)
	}
	mha = c.attnSeconds(c.GEMM(b, h, 4*h, 2).Seconds, b, h, int64(cfg.Heads), int64(attended), kvBytes, window)
	if swa {
		mha += sparseBookkeeping
	}
	return mha, c.FFNTime(batch, cfg.Hidden, cfg.FFN, cfg.GatedFFN).Seconds
}

// RaggedDecodeTime returns the model-wide MHA and FFN times of one fused
// continuous-batching decode iteration over a dynamic batch whose
// sequences attend to heterogeneous token counts. Projections and the FFN
// run as single batch-wide GEMMs (one row per sequence); the attention
// kernels run raggedly — each sequence reads its own attended KV — but
// launch once per kernel class, so only the first sequence pays the
// per-kernel launch latency. For a single sequence this reduces exactly
// to DecodeLayerTime at batch 1 summed over layers, keeping the serving
// loop's charges consistent with the lockstep engine's.
func (c *Cost) RaggedDecodeTime(cfg model.Config, attended []int, kvBytes int, swa bool) (mha, ffn float64) {
	return c.raggedDecode(&cfg, attended, kvBytes, swa, nil)
}

// raggedDecode is RaggedDecodeTime. A non-nil terms keeps each
// sequence's per-layer attention term by attended count: a term is
// read from it when present and stored in it on first use (0 marks an
// unpriced count; every term is positive).
func (c *Cost) raggedDecode(cfg *model.Config, attended []int, kvBytes int, swa bool, terms *[]float64) (mha, ffn float64) {
	b := len(attended)
	if b == 0 {
		return 0, 0
	}
	h, heads := int64(cfg.Hidden), int64(cfg.Heads)
	mhaLayer := c.GEMM(int64(b), h, 4*h, 2).Seconds

	kernels := 3.0 // QKT, softmax, AV
	if swa {
		kernels = 5 // + local sum, gather
	}
	// Each sequence is costed as a batch-1 module whose projection is
	// fused into the batch-wide GEMM above, so its own projection term is
	// added and taken back out — the lockstep engine's Total() − QProj,
	// bit for bit.
	proj1 := c.GEMM(1, h, 4*h, 2).Seconds
	var kept []float64
	if terms != nil {
		kept = *terms
	}
	for _, sel := range attended {
		if sel < len(kept) && kept[sel] != 0 {
			mhaLayer += kept[sel]
			continue
		}
		var window int64
		if swa {
			window = int64(sel / 2)
		}
		t := c.attnSeconds(proj1, 1, h, heads, int64(sel), kvBytes, window) - proj1
		if terms != nil {
			if sel >= len(kept) {
				kept = slices.Grow(kept, sel+1-len(kept))[:sel+1]
			}
			kept[sel] = t
		}
		mhaLayer += t
	}
	if terms != nil {
		*terms = kept
	}
	// The conversion rounds the product before the subtraction, so no
	// platform fuses the two into one multiply-add with a different
	// rounding.
	mhaLayer -= float64(float64(b-1) * kernels * launchLatency)
	if swa {
		mhaLayer += sparseBookkeeping
	}
	layers := float64(cfg.Layers)
	ffnLayer := c.FFNTime(b, cfg.Hidden, cfg.FFN, cfg.GatedFFN)
	return mhaLayer * layers, ffnLayer.Seconds * layers
}

// DecodePrices is RaggedDecodeTime for one model and KV element width,
// with each sequence's per-layer attention term priced once per
// attended count and SWA flag: the term depends on nothing else, so a
// serving loop whose sequences grow by one token per step prices each
// length once instead of every iteration. Terms are filled on first
// use, so building a table costs nothing. A table is not safe for
// concurrent use; Clone gives another goroutine its own.
type DecodePrices struct {
	cost    Cost
	cfg     model.Config
	kvBytes int
	terms   [2][]float64 // by SWA flag, then attended count
}

// NewDecodePrices returns an empty price table for cfg at kvBytes per
// KV element under c.
func NewDecodePrices(c Cost, cfg model.Config, kvBytes int) DecodePrices {
	return DecodePrices{cost: c, cfg: cfg, kvBytes: kvBytes}
}

// Time returns RaggedDecodeTime(cfg, attended, kvBytes, swa) for the
// table's model and width, bit for bit: the same terms added in the
// same order, with only their derivation skipped once a count is
// priced.
//
//alisa:hotpath
func (p *DecodePrices) Time(attended []int, swa bool) (mha, ffn float64) {
	terms := &p.terms[0]
	if swa {
		terms = &p.terms[1]
	}
	return p.cost.raggedDecode(&p.cfg, attended, p.kvBytes, swa, terms)
}

// Clone returns an independent copy of the table, priced terms
// included.
func (p *DecodePrices) Clone() DecodePrices {
	c := *p
	c.terms = [2][]float64{slices.Clone(p.terms[0]), slices.Clone(p.terms[1])}
	return c
}

// PrefillTime returns the time to prefill a batch of prompts of length s:
// projection GEMMs at batch·s rows plus causal (half-square) attention,
// where each sequence multiplies against its own keys and values.
func (c *Cost) PrefillTime(cfg model.Config, batch, s int) float64 {
	rows := int64(batch) * int64(s)
	h := int64(cfg.Hidden)
	sl := int64(s)
	proj := c.GEMM(rows, h, 4*h, 2)
	ffn := c.FFNTime(batch*s, cfg.Hidden, cfg.FFN, cfg.GatedFFN)
	// Per-sequence s×h · h×(s/2) score product, batch of them.
	qkt := c.GEMM(sl, h, sl/2+1, 2)
	av := c.GEMM(sl, sl/2+1, h, 2)
	soft := c.Elementwise(rows*sl/2, 5, 2)
	// The conversion rounds the product before the sum, as in
	// RaggedDecodeTime.
	perLayer := proj.Seconds + ffn.Seconds + float64(float64(batch)*(qkt.Seconds+av.Seconds)) + soft.Seconds
	return perLayer * float64(cfg.Layers)
}

// RecomputeTime returns the time to recompute K/V tensors for n deleted
// tokens of a batch: the K and V projections charged over the token rows
// (paper Table II's Tr).
func (c *Cost) RecomputeTime(cfg *model.Config, batch, tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	rows := int64(batch) * int64(tokens)
	h := int64(cfg.Hidden)
	kv := c.GEMM(rows, h, 2*h, 2) // K and V projections fused
	return kv.Seconds * float64(cfg.Layers)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
