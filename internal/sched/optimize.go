package sched

import (
	"math"

	"repro/internal/kvcache"
	"repro/internal/memsim"
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
	m, f := ctx.Cost.DecodeLayerTime(&ctx.Model, ctx.Batch, attended, ctx.kvComputeWidth(), sparse)
	layers := float64(ctx.Model.Layers)
	return m * layers, f * layers
}

// Optimize performs the paper's offline parameter search (§V-A): the data
// transfer sub-problem is solved from hardware constraints (α and p1
// follow from memory capacity), and the computation sub-problem by greedy
// search over (β, p2), ranking each candidate by what Predict charges for
// it — the simulator standing in for the paper's profiling tables.
func Optimize(ctx *Context) Params {
	budget := int(ctx.Sys.GPUHeadroom() / ctx.TokenBytes())
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
	// Phase III candidates start one grid notch after p1: deletion acts on
	// the CPU-resident pool, which Phase II must populate first, and
	// deleting tokens straight after paying their offload transfer wastes
	// that transfer. The grid therefore keeps a structural Phase II, as in
	// the paper's three-phase design. It stops short of p2 = Output: such a
	// candidate deletes nothing, costs exactly the β = 0 baseline, and so
	// never wins the strict comparison.
	var grid [7]int
	for k := range grid {
		frac := float64(k+1) / 8 // 0.125 … 0.875
		grid[k] = p1 + int(frac*float64(ctx.Output-p1))
	}

	// β and p2 act only from step p2 on, so every candidate's run is the
	// β = 0 baseline's up to its p2. The baseline saves the system and the
	// token store at each grid p2 it reaches, and each candidate continues
	// from there: it is charged exactly what Predict charges it.
	dry := dryContext(ctx)
	start := dry.Sys.Clock()
	a := &alisa{recompute: true, p2: ctx.Output}
	var saved [len(grid)]struct {
		sys   memsim.System
		store kvcache.TokenStore
	}
	reached, bestCost := 0, math.Inf(1)
	if a.Init(dry) == nil {
		j := 0
		for ; reached < len(grid) && runSteps(dry, a, j, grid[reached]); reached++ {
			j = grid[reached]
			saved[reached].sys = *dry.Sys
			saved[reached].store.CopyFrom(a.store)
		}
		if reached == len(grid) && runSteps(dry, a, j, ctx.Output) {
			bestCost = dry.Sys.Clock() - start
		}
	}
	for _, beta := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		for k, p2 := range grid[:reached] {
			*dry.Sys = saved[k].sys
			a.store.CopyFrom(&saved[k].store)
			a.beta, a.p2 = beta, p2
			if runSteps(dry, a, p2, ctx.Output) {
				if cost := dry.Sys.Clock() - start; cost < bestCost {
					best, bestCost = Params{Alpha: alpha, Beta: beta, P1: p1, P2: p2}, cost
				}
			}
		}
	}
	return best
}

// Predict returns the decode seconds a run with parameters p is charged:
// a dry run of the oldest-first scheduler, with Phase III at β and p2,
// through Init and every decode step, each charged as the engine charges
// it, on a copy of the context's system. It is +Inf when the run cannot
// place its KV. The run starts from the system's current state, as
// Optimize's do, so call it right after Optimize, before the run places
// any KV.
func Predict(ctx *Context, p Params) float64 {
	dry := dryContext(ctx)
	start := dry.Sys.Clock()
	a := &alisa{beta: p.Beta, p2: p.P2, recompute: true}
	if a.Init(dry) != nil || !runSteps(dry, a, 0, ctx.Output) {
		return math.Inf(1)
	}
	return dry.Sys.Clock() - start
}

// dryContext returns a copy of ctx over a copy of its system, so a dry
// run leaves the caller's system untouched.
func dryContext(ctx *Context) *Context {
	dry, sys := *ctx, *ctx.Sys
	dry.Sys = &sys
	return &dry
}

// runSteps runs a's decode steps [from, to), charging each step's compute
// as the engine does, and reports whether every step placed its KV.
func runSteps(ctx *Context, a *alisa, from, to int) bool {
	for j := from; j < to; j++ {
		plan, err := a.Step(ctx, j)
		if err != nil {
			return false
		}
		ChargeStepCompute(ctx, plan)
	}
	return true
}

// ChargeStepCompute charges a step's compute to the system's ledger: the
// MHA/FFN pair, the recomputation of deleted KV (Tr in Table II), and for
// compressed KV one quantization pass over the new position and the
// fetched ones. The engine and Predict's dry runs both charge through it.
func ChargeStepCompute(ctx *Context, plan StepPlan) {
	ctx.Sys.ChargeDecode(StepComputeSeconds(ctx, plan.Attended, plan.Sparse))
	if plan.RecomputedTokens > 0 {
		ctx.Sys.Charge(trace.CatRecompute, ctx.Cost.RecomputeTime(&ctx.Model, ctx.Batch, plan.RecomputedTokens))
	}
	if ctx.KVBits < 16 {
		ctx.Sys.Charge(trace.CatQuant, ctx.Cost.Quantize(int64(1+plan.FetchedTokens)*ctx.TokenBytesFP16()).Seconds)
	}
}
