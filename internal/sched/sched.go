// Package sched implements the KV-cache scheduling policies the paper
// compares at the system level (Table I). The built-ins are unexported
// types reached only through the scheduler table (ByName, MustByName,
// FactoryByName) and the ablation constructors, so every instance carries
// the defaults its name promises:
//
//   - alisa — the paper's contribution: token-level three-phase dynamic
//     scheduling (Algorithm 2) with sparsity-aware caching and
//     caching-vs-recomputation balancing, plus the offline optimizer for
//     {α, β, p1, p2} (Eq. 3–6). NewAlisaManual (Fig. 12(b)) fixes β and
//     P2; NewAlisaNewestFirst inverts its offload order (§V-A).
//   - vllm — block-level paged cache in 16-token blocks, GPU-resident,
//     run in waves when the batch does not fit.
//   - The static-placement family, one type: a fixed GPU share of every
//     token's KV, the rest in CPU memory and streamed every step. The
//     table's flexgen (a head-level split solved at Init), gpu-only and
//     deepspeed-zero (all on GPU; deepspeed-zero also streams the weights
//     from CPU memory) and hf-accelerate (all on CPU) are its members, as
//     is NewPCIeSplit, Fig. 1's placement ablation.
//   - no-cache — KV caching disabled, the quadratic arm of Fig. 2(c).
//
// Schedulers operate against the memsim system (bytes and capacities) and
// return per-step plans; the engine in internal/core charges compute.
package sched

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/trace"
)

// Context is the runtime a scheduler operates in for one simulated
// inference run. All sequences in the batch advance in lockstep, so one
// "token position" covers the whole batch's KV at that position.
type Context struct {
	Sys   *memsim.System
	Cost  costmodel.Cost
	Model model.Config

	Batch  int
	Input  int // prompt length s
	Output int // generated tokens n

	// CachingRatio is r = 1 − KV sparsity; 1.0 means dense attention.
	CachingRatio float64
	// KVBits is the stored KV precision: 16 (FP16), 8 (the INT8
	// compression of §V-B), or 4 (the INT4 extension the paper cites as
	// viable for OPT [14]).
	KVBits int

	// Deprecated: nothing reads Breakdown; Sys's ledger books every charge.
	Breakdown *trace.Breakdown
}

// TokenBytes returns the KV bytes of one token position across the batch
// at the context's storage precision — the unit of all placement
// decisions.
func (c *Context) TokenBytes() int64 {
	return int64(c.Batch) * c.Model.KVBytesPerToken(2) * int64(c.KVBits) / 16
}

// kvComputeWidth returns the element width the attention kernels read;
// sub-byte storage still reads byte-aligned words.
func (c *Context) kvComputeWidth() int {
	if c.KVBits >= 16 {
		return 2
	}
	return 1
}

// TokenBytesFP16 returns the uncompressed (FP16) KV bytes of one position,
// used to charge quantization passes.
func (c *Context) TokenBytesFP16() int64 {
	return int64(c.Batch) * c.Model.KVBytesPerToken(2)
}

// WeightBytes returns the FP16 model weight footprint.
func (c *Context) WeightBytes() int64 { return c.Model.WeightBytes(2) }

// ActivationBytes returns the transient activation footprint reserved on
// the GPU for the whole run.
func (c *Context) ActivationBytes() int64 { return c.Model.ActivationBytes(c.Batch, 2) }

// ReserveStatic allocates what a run holds from start to end, before any
// KV: the profile's runtime reserve and the activations on the GPU, and
// the FP16 weights on the GPU, or in CPU memory when weightsOnCPU (see
// WeightsOnCPU). The lockstep engine reserves for its batch, the serving
// loop for its batch cap.
func (c *Context) ReserveStatic(weightsOnCPU bool) error {
	if err := c.Sys.AllocGPU(c.Sys.Prof.ReserveBytes); err != nil {
		return fmt.Errorf("runtime reserve: %w", err)
	}
	allocWeights := c.Sys.AllocGPU
	if weightsOnCPU {
		allocWeights = c.Sys.AllocCPU
	}
	if err := allocWeights(c.WeightBytes()); err != nil {
		return fmt.Errorf("weights: %w", err)
	}
	if err := c.Sys.AllocGPU(c.ActivationBytes()); err != nil {
		return fmt.Errorf("activations: %w", err)
	}
	return nil
}

// MaxSeq returns the final sequence length s + n.
func (c *Context) MaxSeq() int { return c.Input + c.Output }

// StepPlan is what a scheduler decided for one decode step. The scheduler
// has already charged transfer time; the engine charges compute from the
// token counts.
type StepPlan struct {
	// Attended is the number of tokens the step attends to per sequence,
	// including the newly generated token.
	Attended int
	// FetchedTokens is how many attended token positions were streamed
	// from CPU memory this step (transfer already charged).
	FetchedTokens int
	// RecomputedTokens is how many attended positions must be recomputed
	// on the GPU because their KV was deleted (engine charges Tr).
	RecomputedTokens int
	// OffloadedTokens and DeletedTokens report placement changes made
	// this step (for tracing).
	OffloadedTokens int
	DeletedTokens   int
	// Sparse marks steps that pay SWA's local-sum and gather overheads.
	Sparse bool
	// FullRecompute marks a step that reprocesses the whole sequence
	// (KV caching disabled, Fig. 2(c)); Attended is then the sequence
	// length and the engine charges a prefill-shaped pass.
	FullRecompute bool
}

// Scheduler plans KV placement for a simulated inference run.
type Scheduler interface {
	Name() string
	// Init allocates the prefill KV (s tokens) according to the policy.
	// The engine has already reserved weights and activations.
	//
	// Init starts a sequence on a new or used instance: it resets all
	// per-sequence state, whatever the instance ran before, so the run
	// that follows is the one a fresh instance would make. Freeing the
	// previous run's memory stays the caller's job (Release, or rolling
	// back a failed Init). The lockstep engine re-Inits one instance per
	// wave, and the serving loop one per pooled sequence slot.
	Init(ctx *Context) error
	// Step plans decode step j ∈ [0, Output): placement changes for the
	// new token, fetches for this step's attention, offloads and
	// deletions. Transfer time is charged inside; compute is returned.
	Step(ctx *Context, j int) (StepPlan, error)
	Releaser
	// CloneScheduler deep-copies the per-sequence state mid-run: the
	// returned instance, driven through the same Step sequence against a
	// cloned system, behaves identically to the original — the
	// requirement behind the serving loop's Fork.
	CloneScheduler() Scheduler
}

// WavePlanner is implemented by schedulers that split a batch into
// sequential waves when it cannot be served at once (vLLM-style
// admission). The engine runs one full inference per wave.
type WavePlanner interface {
	Waves(ctx *Context) ([]int, error)
}

// Releaser frees every byte a scheduler's sequence holds on the simulated
// system — the free-on-completion (and preemption) hook of the serving
// loop. Release must be exact: after any Init or Step return, successful
// or not, the scheduler's bookkeeping matches its live allocations, so
// Release(ctx) leaves the system as if the sequence never ran.
type Releaser interface {
	Release(ctx *Context)
}

// attendedTokens returns how many tokens a step attends to under the
// context's caching ratio with n cached tokens: the sparse budget plus the
// current token.
func attendedTokens(ctx *Context, n int) int {
	if ctx.CachingRatio >= 1 {
		return n + 1
	}
	// The conversion rounds the product before the add, so no platform
	// fuses the two into one multiply-add with a different rounding.
	b := int(float64(float64(n)*ctx.CachingRatio) + 0.5)
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b + 1
}
