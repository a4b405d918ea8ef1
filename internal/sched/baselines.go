package sched

import (
	"fmt"

	"repro/internal/kvcache"
)

// vllmBlockSize is vLLM's serving default: 16-token KV blocks.
const vllmBlockSize = 16

// vllm is the paged-attention baseline [21]: KV lives in fixed-size GPU
// blocks with no static reservation, so memory is used exactly as needed
// (plus at most one partial block per sequence). When a batch cannot fit
// at its peak length, admission control runs it in sequential waves —
// vLLM's continuous-batching behaviour projected onto the paper's
// lockstep-batch evaluation. Dense attention; no offload streaming.
type vllm struct {
	store *kvcache.BlockStore
}

// Name implements Scheduler.
func (v *vllm) Name() string { return "vllm" }

// CloneScheduler implements Scheduler.
func (v *vllm) CloneScheduler() Scheduler {
	c := *v
	if v.store != nil {
		c.store = v.store.Clone()
	}
	return &c
}

// Waves implements WavePlanner: admit as many sequences as the GPU can
// hold at their *average* footprint. Continuous batching overlaps
// sequence lifetimes, so steady-state occupancy tracks the mean allocation
// (s + n/2 tokens, block-rounded), not the peak; projected onto the
// paper's lockstep batches this sets the wave size.
func (v *vllm) Waves(ctx *Context) ([]int, error) {
	avgLen := ctx.Input + ctx.Output/2
	perSeqBlocks := (avgLen + vllmBlockSize - 1) / vllmBlockSize
	blockBytes := vllmBlockSize * ctx.Model.KVBytesPerToken(2) * int64(ctx.KVBits) / 16
	perSeqBytes := int64(perSeqBlocks) * blockBytes
	fit := int(ctx.Sys.GPUHeadroom() / perSeqBytes)
	if fit <= 0 {
		return nil, fmt.Errorf("vllm: a single sequence's KV (%d bytes) exceeds GPU headroom %d",
			perSeqBytes, ctx.Sys.GPUHeadroom())
	}
	if fit > ctx.Batch {
		fit = ctx.Batch
	}
	var waves []int
	for remaining := ctx.Batch; remaining > 0; remaining -= fit {
		waves = append(waves, min(fit, remaining))
	}
	return waves, nil
}

// Init implements Scheduler for one wave (ctx.Batch is the wave size). A
// used instance empties its block store in place.
func (v *vllm) Init(ctx *Context) error {
	if v.store == nil {
		v.store = kvcache.NewBlockStore(vllmBlockSize)
	}
	v.store.Reset()
	blockBytes := v.blockBytes(ctx)
	// The blocks that fit the headroom in one allocation, filled with
	// the prompt's tokens. A prompt that needs more fails on the first
	// block past them, leaving the fitting blocks placed: bookkeeping
	// and live memory agree, as if each block had been reserved in turn.
	blocks := (ctx.Input + vllmBlockSize - 1) / vllmBlockSize
	fit := blocks
	if blockBytes > 0 {
		fit = min(blocks, int(ctx.Sys.GPUHeadroom()/blockBytes))
	}
	if err := ctx.Sys.AllocGPU(int64(fit) * blockBytes); err != nil {
		return fmt.Errorf("vllm: prefill block: %w", err) // cannot happen: the blocks fit the headroom
	}
	v.store.AppendN(min(ctx.Input, fit*vllmBlockSize))
	if fit < blocks {
		return fmt.Errorf("vllm: prefill block: %w", ctx.Sys.AllocGPU(blockBytes))
	}
	return nil
}

// Step implements Scheduler: dense attention over paged blocks. When the
// wave outgrows the GPU late in the run (admission sized it by average
// footprint), the oldest blocks are swapped to CPU memory and streamed
// back across PCIe each step — vLLM's preemption-swap behaviour.
func (v *vllm) Step(ctx *Context, j int) (StepPlan, error) {
	n := v.store.Tokens()
	plan := StepPlan{Attended: attendedTokens(ctx, n), Sparse: ctx.CachingRatio < 1}
	blockBytes := v.blockBytes(ctx)

	if swapped := v.store.BlocksIn(kvcache.CPU); swapped > 0 {
		ctx.Sys.TransferToGPU(int64(swapped) * blockBytes)
		plan.FetchedTokens = swapped * vllmBlockSize
	}

	if v.store.WouldGrow() {
		for ctx.Sys.GPUHeadroom() < blockBytes {
			// Secure the CPU destination before the swap mutates the store.
			if err := ctx.Sys.AllocCPU(blockBytes); err != nil {
				return plan, fmt.Errorf("vllm: swap destination: %w", err)
			}
			if v.store.SwapOut(1) == 0 {
				ctx.Sys.FreeCPU(blockBytes)
				return plan, fmt.Errorf("vllm: GPU full with nothing to swap (block %d bytes)", blockBytes)
			}
			ctx.Sys.TransferToCPU(blockBytes)
			ctx.Sys.FreeGPU(blockBytes)
			plan.OffloadedTokens += vllmBlockSize
		}
		if err := ctx.Sys.AllocGPU(blockBytes); err != nil {
			return plan, fmt.Errorf("vllm: decode block: %w", err)
		}
	}
	v.store.Append()
	return plan, nil
}

// Release implements Scheduler: free every allocated block on its current
// device.
func (v *vllm) Release(ctx *Context) {
	if v.store == nil {
		return
	}
	blockBytes := v.blockBytes(ctx)
	ctx.Sys.FreeGPU(int64(v.store.BlocksIn(kvcache.GPU)) * blockBytes)
	ctx.Sys.FreeCPU(int64(v.store.BlocksIn(kvcache.CPU)) * blockBytes)
	v.store.Reset()
}

func (v *vllm) blockBytes(ctx *Context) int64 {
	return vllmBlockSize * ctx.TokenBytes()
}

// noCache disables KV caching entirely: every decode step reprocesses the
// whole sequence from scratch — the quadratic-time arm of Fig. 2(c).
// Memory stays flat (no KV is retained) while time per step grows.
type noCache struct {
	tokens int
}

// Name implements Scheduler.
func (n *noCache) Name() string { return "no-cache" }

// CloneScheduler implements Scheduler.
func (n *noCache) CloneScheduler() Scheduler {
	c := *n
	return &c
}

// Init implements Scheduler; nothing is cached.
func (n *noCache) Init(ctx *Context) error {
	n.tokens = ctx.Input
	return nil
}

// Step implements Scheduler, requesting a full forward pass.
func (n *noCache) Step(ctx *Context, j int) (StepPlan, error) {
	n.tokens++
	return StepPlan{Attended: n.tokens, FullRecompute: true}, nil
}

// Release implements Scheduler; nothing is ever cached.
func (n *noCache) Release(ctx *Context) {
	n.tokens = 0
}

// interface checks
var (
	_ Scheduler   = (*vllm)(nil)
	_ WavePlanner = (*vllm)(nil)
	_ Scheduler   = (*noCache)(nil)
)
