package sched

import (
	"fmt"

	"repro/internal/kvcache"
	"repro/internal/trace"
)

// FlexGen is the static head-level offloading baseline [31] (Fig. 7(a)):
// an offline-chosen fraction of every token's KV stays on the GPU and the
// rest lives in CPU memory, streamed across PCIe at every step. The split
// is solved from memory capacity once and never changes ("remains static
// across different sequence lengths").
type FlexGen struct {
	// GPUHeads / Heads is the static split; -1 requests the offline solve.
	GPUHeads int

	store *kvcache.HeadStore
}

// NewFlexGen returns a FlexGen baseline with the split solved at Init.
func NewFlexGen() *FlexGen { return &FlexGen{GPUHeads: -1} }

// Name implements Scheduler.
func (f *FlexGen) Name() string { return "flexgen" }

// CloneScheduler implements Scheduler.
func (f *FlexGen) CloneScheduler() Scheduler {
	c := *f
	if f.store != nil {
		c.store = f.store.Clone()
	}
	return &c
}

// GPUFraction returns the static GPU share chosen at Init.
func (f *FlexGen) GPUFraction() float64 { return f.store.GPUFraction() }

// Init implements Scheduler: solve the head split from capacity, place the
// prefill KV.
func (f *FlexGen) Init(ctx *Context) error {
	heads := ctx.Model.Heads
	gpuHeads := f.GPUHeads
	if gpuHeads < 0 {
		// Offline linear solve: the largest head fraction whose peak-KV
		// share fits the GPU headroom.
		peakKV := float64(ctx.MaxSeq()) * float64(ctx.TokenBytes())
		frac := float64(ctx.Sys.GPUHeadroom()) / peakKV
		if frac > 1 {
			frac = 1
		}
		gpuHeads = int(frac * float64(heads))
	}
	f.store = kvcache.NewHeadStore(heads, gpuHeads)

	tokenBytes := ctx.TokenBytes()
	gpuShare, cpuShare := f.store.Split(tokenBytes)
	for i := 0; i < ctx.Input; i++ {
		if err := f.allocToken(ctx, gpuShare, cpuShare); err != nil {
			return fmt.Errorf("flexgen: prefill token: %w", err)
		}
	}
	return nil
}

// allocToken reserves one token's static shares on both devices, leaving
// nothing allocated on failure so the store always matches live memory.
func (f *FlexGen) allocToken(ctx *Context, gpuShare, cpuShare int64) error {
	if err := ctx.Sys.AllocGPU(gpuShare); err != nil {
		return err
	}
	if cpuShare > 0 {
		if err := ctx.Sys.AllocCPU(cpuShare); err != nil {
			ctx.Sys.FreeGPU(gpuShare)
			return err
		}
		ctx.ChargeToCPU(cpuShare)
	}
	f.store.Append()
	return nil
}

// Step implements Scheduler: stream the CPU-resident share of every
// attended token across PCIe, store the new token's shares to their
// static homes. This is the configuration the paper measures — Fig. 1
// attributes FlexGen's slowdown to "moving KV tensors between CPU and GPU"
// on the PCIe bus, and Fig. 7(a) shows the head-level split streamed
// per step.
func (f *FlexGen) Step(ctx *Context, j int) (StepPlan, error) {
	n := f.store.Tokens()
	attended := attendedTokens(ctx, n)
	plan := StepPlan{Attended: attended, Sparse: ctx.CachingRatio < 1}

	tokenBytes := ctx.TokenBytes()
	gpuShare, cpuShare := f.store.Split(tokenBytes)
	if cpuShare > 0 {
		ctx.ChargeToGPU(int64(attended-1) * cpuShare)
		plan.FetchedTokens = attended - 1
	}

	if err := f.allocToken(ctx, gpuShare, cpuShare); err != nil {
		return plan, fmt.Errorf("flexgen: new-token shares: %w", err)
	}
	if cpuShare > 0 {
		plan.OffloadedTokens = 1
	}
	return plan, nil
}

// Release implements Scheduler: free the static shares of every stored
// token on both devices.
func (f *FlexGen) Release(ctx *Context) {
	if f.store == nil {
		return
	}
	gpuShare, cpuShare := f.store.Split(ctx.TokenBytes())
	n := int64(f.store.Tokens())
	ctx.Sys.FreeGPU(n * gpuShare)
	ctx.Sys.FreeCPU(n * cpuShare)
	f.store.Reset()
}

// VLLM is the paged-attention baseline [21]: KV lives in fixed-size GPU
// blocks with no static reservation, so memory is used exactly as needed
// (plus at most one partial block per sequence). When a batch cannot fit
// at its peak length, admission control runs it in sequential waves —
// vLLM's continuous-batching behaviour projected onto the paper's
// lockstep-batch evaluation. Dense attention; no offload streaming.
type VLLM struct {
	BlockSize int

	store *kvcache.BlockStore
}

// NewVLLM returns a vLLM baseline with the serving default of 16-token
// blocks.
func NewVLLM() *VLLM { return &VLLM{BlockSize: 16} }

// Name implements Scheduler.
func (v *VLLM) Name() string { return "vllm" }

// CloneScheduler implements Scheduler.
func (v *VLLM) CloneScheduler() Scheduler {
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
func (v *VLLM) Waves(ctx *Context) ([]int, error) {
	avgLen := ctx.Input + ctx.Output/2
	perSeqBlocks := (avgLen + v.BlockSize - 1) / v.BlockSize
	blockBytes := int64(v.BlockSize) * ctx.Model.KVBytesPerToken(2) * int64(ctx.KVBits) / 16
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
		waves = append(waves, minInt(fit, remaining))
	}
	return waves, nil
}

// Init implements Scheduler for one wave (ctx.Batch is the wave size).
func (v *VLLM) Init(ctx *Context) error {
	v.store = kvcache.NewBlockStore(v.BlockSize)
	blockBytes := v.blockBytes(ctx)
	for i := 0; i < ctx.Input; i++ {
		// Reserve the block before growing the store, so a failed
		// allocation leaves bookkeeping and live memory in agreement.
		if v.store.WouldGrow() {
			if err := ctx.Sys.AllocGPU(blockBytes); err != nil {
				return fmt.Errorf("vllm: prefill block: %w", err)
			}
		}
		v.store.Append()
	}
	return nil
}

// Step implements Scheduler: dense attention over paged blocks. When the
// wave outgrows the GPU late in the run (admission sized it by average
// footprint), the oldest blocks are swapped to CPU memory and streamed
// back across PCIe each step — vLLM's preemption-swap behaviour.
func (v *VLLM) Step(ctx *Context, j int) (StepPlan, error) {
	n := v.store.Tokens()
	plan := StepPlan{Attended: attendedTokens(ctx, n), Sparse: ctx.CachingRatio < 1}
	blockBytes := v.blockBytes(ctx)

	if swapped := v.store.BlocksIn(kvcache.CPU); swapped > 0 {
		ctx.ChargeToGPU(int64(swapped) * blockBytes)
		plan.FetchedTokens = swapped * v.BlockSize
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
			ctx.ChargeToCPU(blockBytes)
			ctx.Sys.FreeGPU(blockBytes)
			plan.OffloadedTokens += v.BlockSize
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
func (v *VLLM) Release(ctx *Context) {
	if v.store == nil {
		return
	}
	blockBytes := v.blockBytes(ctx)
	ctx.Sys.FreeGPU(int64(v.store.BlocksIn(kvcache.GPU)) * blockBytes)
	ctx.Sys.FreeCPU(int64(v.store.BlocksIn(kvcache.CPU)) * blockBytes)
	v.store.Reset()
}

func (v *VLLM) blockBytes(ctx *Context) int64 {
	return int64(v.BlockSize) * ctx.TokenBytes()
}

// DeepSpeed is the ZeRO-Inference baseline [1]: model weights live in CPU
// memory and stream across PCIe every forward pass (overlapped with
// compute), while KV tensors are pinned to the GPU — which is why it hits
// OOM at large batch sizes in Fig. 9 ("it does not offload KV tensors").
type DeepSpeed struct {
	tokens int
}

// NewDeepSpeed returns the ZeRO-style baseline.
func NewDeepSpeed() *DeepSpeed { return &DeepSpeed{} }

// Name implements Scheduler.
func (d *DeepSpeed) Name() string { return "deepspeed-zero" }

// CloneScheduler implements Scheduler.
func (d *DeepSpeed) CloneScheduler() Scheduler {
	c := *d
	return &c
}

// WeightsOnCPU reports that this scheduler keeps weights off the GPU; the
// engine skips the GPU weight reservation and charges streaming instead.
func (d *DeepSpeed) WeightsOnCPU() bool { return true }

// Init implements Scheduler: all prefill KV on GPU.
func (d *DeepSpeed) Init(ctx *Context) error {
	d.tokens = 0
	tokenBytes := ctx.TokenBytes()
	for i := 0; i < ctx.Input; i++ {
		if err := ctx.Sys.AllocGPU(tokenBytes); err != nil {
			return fmt.Errorf("deepspeed: prefill KV: %w", err)
		}
		d.tokens++
	}
	return nil
}

// Step implements Scheduler: stream the weights (less what compute time
// hides), keep KV on GPU.
func (d *DeepSpeed) Step(ctx *Context, j int) (StepPlan, error) {
	n := d.tokens
	attended := attendedTokens(ctx, n)
	plan := StepPlan{Attended: attended, Sparse: ctx.CachingRatio < 1}

	// Weight streaming overlaps with compute; charge only the exposed
	// remainder as transfer time.
	mha, ffn := StepComputeSeconds(ctx, attended, plan.Sparse)
	weightTime := float64(ctx.WeightBytes()) / ctx.Sys.Prof.PCIeBandwidth
	exposed := weightTime - (mha + ffn)
	if exposed > 0 {
		// Charge the exposed stall directly; counting the full weight
		// bytes every step would distort byte statistics, and the stall
		// is what the end-to-end time sees.
		ctx.Sys.Advance(exposed)
		ctx.Breakdown.Add(trace.CatTransfer, exposed)
	}

	if err := ctx.Sys.AllocGPU(ctx.TokenBytes()); err != nil {
		return plan, fmt.Errorf("deepspeed: new-token KV: %w", err)
	}
	d.tokens++
	return plan, nil
}

// Release implements Scheduler: KV is GPU-pinned, so everything frees there.
func (d *DeepSpeed) Release(ctx *Context) {
	ctx.Sys.FreeGPU(int64(d.tokens) * ctx.TokenBytes())
	d.tokens = 0
}

// HFAccelerate is the HuggingFace Accelerate baseline [39]: the whole KV
// cache lives in CPU memory ("offloading the whole KV tensors to the CPU
// memory"), so every step streams the entire attended context in and the
// new token's KV out — the 100 %-CPU bar of Fig. 1.
type HFAccelerate struct {
	tokens int
}

// NewHFAccelerate returns the whole-KV-offload baseline.
func NewHFAccelerate() *HFAccelerate { return &HFAccelerate{} }

// Name implements Scheduler.
func (h *HFAccelerate) Name() string { return "hf-accelerate" }

// CloneScheduler implements Scheduler.
func (h *HFAccelerate) CloneScheduler() Scheduler {
	c := *h
	return &c
}

// Init implements Scheduler: prefill KV goes straight to CPU.
func (h *HFAccelerate) Init(ctx *Context) error {
	h.tokens = 0
	tokenBytes := ctx.TokenBytes()
	for i := 0; i < ctx.Input; i++ {
		if err := ctx.Sys.AllocCPU(tokenBytes); err != nil {
			return fmt.Errorf("hf-accelerate: prefill KV: %w", err)
		}
		ctx.ChargeToCPU(tokenBytes)
		h.tokens++
	}
	return nil
}

// Step implements Scheduler: fetch everything, store the new token back.
func (h *HFAccelerate) Step(ctx *Context, j int) (StepPlan, error) {
	n := h.tokens
	attended := attendedTokens(ctx, n)
	plan := StepPlan{Attended: attended, Sparse: ctx.CachingRatio < 1}

	fetch := int64(attended-1) * ctx.TokenBytes()
	if fetch > 0 {
		ctx.ChargeToGPU(fetch)
		plan.FetchedTokens = attended - 1
	}
	if err := ctx.Sys.AllocCPU(ctx.TokenBytes()); err != nil {
		return plan, fmt.Errorf("hf-accelerate: new-token KV: %w", err)
	}
	ctx.ChargeToCPU(ctx.TokenBytes())
	h.tokens++
	return plan, nil
}

// Release implements Scheduler: the whole cache lives in CPU memory.
func (h *HFAccelerate) Release(ctx *Context) {
	ctx.Sys.FreeCPU(int64(h.tokens) * ctx.TokenBytes())
	h.tokens = 0
}

// interface checks
var (
	_ Scheduler   = (*FlexGen)(nil)
	_ Scheduler   = (*VLLM)(nil)
	_ WavePlanner = (*VLLM)(nil)
	_ Scheduler   = (*DeepSpeed)(nil)
	_ Scheduler   = (*HFAccelerate)(nil)
)
