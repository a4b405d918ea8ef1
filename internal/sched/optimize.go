package sched

import (
	"math"

	"repro/internal/trace"
)

// Params are the scheduling parameters of Eq. 5: offload ratio α,
// recompute ratio β, and the phase switch steps p1 and p2. They carry no
// cost estimate: the scheduler reads only the parameters, so Predict
// computes the estimate for the callers that report it.
type Params struct {
	Alpha  float64
	Beta   float64
	P1, P2 int
}

// StepComputeSeconds returns the model-wide compute time (MHA + FFN over
// all layers) of one decode step attending to `attended` tokens.
func StepComputeSeconds(ctx *Context, attended int, sparse bool) (mha, ffn float64) {
	m, f := ctx.Cost.DecodeLayerTime(ctx.Model, ctx.Batch, attended, ctx.kvComputeWidth(), sparse)
	layers := float64(ctx.Model.Layers)
	return m * layers, f * layers
}

// RecomputeSeconds returns the time to recompute the KV of `tokens`
// deleted positions (Tr in Table II).
func RecomputeSeconds(ctx *Context, tokens int) float64 {
	return ctx.Cost.RecomputeTime(ctx.Model, ctx.Batch, tokens)
}

// QuantSeconds returns the time to quantize (or dequantize) `positions`
// token positions' worth of FP16 KV.
func QuantSeconds(ctx *Context, positions int) float64 {
	if positions <= 0 {
		return 0
	}
	return ctx.Cost.Quantize(int64(positions) * ctx.TokenBytesFP16()).Seconds
}

// Optimize performs the paper's offline parameter search (§V-A): the data
// transfer sub-problem is solved from hardware constraints (α and p1
// follow from memory capacity), and the computation sub-problem by greedy
// search over (β, p2) against a closed-form cost prediction built from the
// same cost model the runtime uses — the stand-in for the paper's
// profiling tables.
func Optimize(ctx *Context) Params {
	budget := gpuTokenBudget(ctx)
	maxSeq := ctx.MaxSeq()

	// p1: the first decode step at which cached tokens exceed the GPU
	// budget (Phase II trigger). Offloading starts at prefill when even
	// the prompt does not fit.
	p1 := budget - ctx.Input
	if p1 < 0 {
		p1 = 0
	}
	if p1 > ctx.Output {
		p1 = ctx.Output
	}

	// α: the CPU share of KV at full sequence length, forced by capacity.
	alpha := 0.0
	if maxSeq > budget && maxSeq > 0 {
		alpha = 1 - float64(budget)/float64(maxSeq)
	}

	best := Params{Alpha: alpha, Beta: 0, P1: p1, P2: ctx.Output}
	if p1 >= ctx.Output {
		// Everything fits on the GPU; Phases II and III never trigger,
		// so there is no candidate to cost.
		return best
	}
	bestCost := predictCost(ctx, budget, ctx.Output, 0)
	// Phase III candidates start one grid notch after p1: deletion acts on
	// the CPU-resident pool, which Phase II must populate first, and
	// deleting tokens straight after paying their offload transfer wastes
	// that transfer. The grid therefore keeps a structural Phase II, as in
	// the paper's three-phase design.
	for _, beta := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		for frac := 0.125; frac <= 1.0; frac += 0.125 {
			p2 := p1 + int(frac*float64(ctx.Output-p1))
			cost := predictCost(ctx, budget, p2, beta)
			if cost < bestCost {
				best, bestCost = Params{Alpha: alpha, Beta: beta, P1: p1, P2: p2}, cost
			}
		}
	}
	return best
}

// Predict returns the closed-form decode-time estimate (Eq. 5) that
// Optimize ranks candidates by, for the parameters p. It reads the GPU
// budget from the system's current headroom, as Optimize does, so call
// it right after Optimize, before the run places any KV.
func Predict(ctx *Context, p Params) float64 {
	return predictCost(ctx, gpuTokenBudget(ctx), p.P2, p.Beta)
}

// gpuTokenBudget is how many token positions of the batch's KV fit in
// the GPU's current headroom.
func gpuTokenBudget(ctx *Context) int {
	return int(ctx.Sys.GPUHeadroom() / ctx.TokenBytes())
}

// predictCost evaluates Eq. 5 for one parameter candidate with a
// closed-form placement recurrence: the layout is always, oldest to
// newest, [deleted | cpu | gpu], matching the scheduler's oldest-first
// eviction, so per-step fetch and recompute expectations follow from three
// counters.
func predictCost(ctx *Context, budget, p2 int, beta float64) float64 {
	var total float64
	gpu := minInt(ctx.Input, budget)
	cpu := ctx.Input - gpu
	del := 0
	tokenBytes := float64(ctx.TokenBytes())
	pcie := ctx.Sys.Prof.PCIeBandwidth

	for j := 0; j < ctx.Output; j++ {
		n := ctx.Input + j
		attended := attendedTokens(ctx, n)
		local := (attended - 1) / 2
		if ctx.CachingRatio >= 1 {
			local = n
		}
		global := attended - 1 - local
		prefix := n - local

		mha, ffn := StepComputeSeconds(ctx, attended, ctx.CachingRatio < 1)
		total += mha + ffn

		if global > 0 && prefix > 0 {
			_, cpuW, delW := layoutFractions(prefix, del, cpu)
			fetched := math.Round(float64(global) * cpuW)
			recomp := math.Round(float64(global) * delW)
			total += fetched * tokenBytes / pcie
			total += RecomputeSeconds(ctx, int(recomp))
		}
		if ctx.KVBits < 16 {
			total += QuantSeconds(ctx, 1)
		}

		// Placement recurrence: the new token lands on GPU; overflow
		// spills the oldest GPU token to CPU; Phase III deletes to hold
		// the β share.
		gpu++
		if gpu > budget {
			gpu--
			cpu++
			total += tokenBytes / pcie // offload transfer
		}
		if j >= p2 && beta > 0 {
			for cpu > 0 && float64(del) < beta*float64(del+cpu) {
				cpu--
				del++
			}
		}
	}
	return total
}

// layoutFractions is the closed-form analogue of weightedFractions for
// the canonical [deleted | cpu | gpu] layout over a prefix: uniform
// selection makes the fractions plain region shares.
func layoutFractions(prefix, del, cpu int) (gpuW, cpuW, delW float64) {
	if prefix <= 0 {
		return 0, 0, 0
	}
	if del > prefix {
		del, cpu = prefix, 0
	} else if del+cpu > prefix {
		cpu = prefix - del
	}
	total := float64(prefix)
	return float64(prefix-del-cpu) / total, float64(cpu) / total, float64(del) / total
}

// ChargeStepCompute charges a step's compute to the system and breakdown:
// the MHA/FFN pair, recomputation, and the per-step quantization pass for
// compressed KV. It is shared by the engine so runtime charging and the
// optimizer's predictions stay consistent.
func ChargeStepCompute(ctx *Context, plan StepPlan) {
	mha, ffn := StepComputeSeconds(ctx, plan.Attended, plan.Sparse)
	ctx.Sys.Advance(mha + ffn)
	ctx.Breakdown.Add(trace.CatMHA, mha)
	ctx.Breakdown.Add(trace.CatFFN, ffn)
	if plan.RecomputedTokens > 0 {
		r := RecomputeSeconds(ctx, plan.RecomputedTokens)
		ctx.Sys.Advance(r)
		ctx.Breakdown.Add(trace.CatRecompute, r)
	}
	if ctx.KVBits < 16 {
		q := QuantSeconds(ctx, 1+plan.FetchedTokens)
		ctx.Sys.Advance(q)
		ctx.Breakdown.Add(trace.CatQuant, q)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
