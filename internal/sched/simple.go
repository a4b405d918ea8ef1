package sched

import "fmt"

// GPUOnly keeps every KV tensor in GPU memory with no offloading — the
// "GPU only" configuration of Fig. 1, which runs fastest while it fits and
// dies with OOM when it does not.
type GPUOnly struct {
	tokens int
}

// NewGPUOnly returns the no-offload scheduler.
func NewGPUOnly() *GPUOnly { return &GPUOnly{} }

// Name implements Scheduler.
func (g *GPUOnly) Name() string { return "gpu-only" }

// CloneScheduler implements Scheduler.
func (g *GPUOnly) CloneScheduler() Scheduler {
	c := *g
	return &c
}

// Init implements Scheduler.
func (g *GPUOnly) Init(ctx *Context) error {
	g.tokens = 0
	for i := 0; i < ctx.Input; i++ {
		if err := ctx.Sys.AllocGPU(ctx.TokenBytes()); err != nil {
			return fmt.Errorf("gpu-only: prefill KV: %w", err)
		}
		g.tokens++
	}
	return nil
}

// Step implements Scheduler.
func (g *GPUOnly) Step(ctx *Context, j int) (StepPlan, error) {
	plan := StepPlan{Attended: attendedTokens(ctx, g.tokens), Sparse: ctx.CachingRatio < 1}
	if err := ctx.Sys.AllocGPU(ctx.TokenBytes()); err != nil {
		return plan, fmt.Errorf("gpu-only: new-token KV: %w", err)
	}
	g.tokens++
	return plan, nil
}

// Release implements Scheduler.
func (g *GPUOnly) Release(ctx *Context) {
	ctx.Sys.FreeGPU(int64(g.tokens) * ctx.TokenBytes())
	g.tokens = 0
}

// NoCache disables KV caching entirely: every decode step reprocesses the
// whole sequence from scratch — the quadratic-time arm of Fig. 2(c).
// Memory stays flat (no KV is retained) while time per step grows.
type NoCache struct {
	tokens int
}

// NewNoCache returns the caching-disabled scheduler.
func NewNoCache() *NoCache { return &NoCache{} }

// Name implements Scheduler.
func (n *NoCache) Name() string { return "no-cache" }

// CloneScheduler implements Scheduler.
func (n *NoCache) CloneScheduler() Scheduler {
	c := *n
	return &c
}

// Init implements Scheduler; nothing is cached.
func (n *NoCache) Init(ctx *Context) error {
	n.tokens = ctx.Input
	return nil
}

// Step implements Scheduler, requesting a full forward pass.
func (n *NoCache) Step(ctx *Context, j int) (StepPlan, error) {
	n.tokens++
	return StepPlan{Attended: n.tokens, FullRecompute: true}, nil
}

// Release implements Scheduler; nothing is ever cached.
func (n *NoCache) Release(ctx *Context) {
	n.tokens = 0
}

// PCIeSplit keeps a fixed fraction of every token's KV in CPU memory and
// streams it across PCIe at every decode step — the configuration the
// paper measures in Fig. 1 ("50 % means the ratio of the KV tensors
// allocated to CPU/GPU memory"), where 50 % on CPU slows inference ≈3×
// and 100 % ≈5×.
type PCIeSplit struct {
	// CPUFrac is the byte fraction of KV resident in CPU memory.
	CPUFrac float64

	tokens int
}

// NewPCIeSplit returns a split-KV scheduler streaming cpuFrac over PCIe.
func NewPCIeSplit(cpuFrac float64) *PCIeSplit {
	if cpuFrac < 0 || cpuFrac > 1 {
		panic(fmt.Sprintf("sched: CPU fraction %v out of [0,1]", cpuFrac))
	}
	return &PCIeSplit{CPUFrac: cpuFrac}
}

// Name implements Scheduler.
func (p *PCIeSplit) Name() string { return "pcie-split" }

// CloneScheduler implements Scheduler.
func (p *PCIeSplit) CloneScheduler() Scheduler {
	c := *p
	return &c
}

// Init implements Scheduler.
func (p *PCIeSplit) Init(ctx *Context) error {
	p.tokens = 0
	gpuShare, cpuShare := p.split(ctx)
	for i := 0; i < ctx.Input; i++ {
		if err := p.allocToken(ctx, gpuShare, cpuShare); err != nil {
			return fmt.Errorf("pcie-split: prefill token: %w", err)
		}
	}
	return nil
}

// allocToken reserves one token's shares on both devices, leaving nothing
// allocated on failure.
func (p *PCIeSplit) allocToken(ctx *Context, gpuShare, cpuShare int64) error {
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
	p.tokens++
	return nil
}

// Step implements Scheduler: fetch the CPU share of the whole context.
func (p *PCIeSplit) Step(ctx *Context, j int) (StepPlan, error) {
	attended := attendedTokens(ctx, p.tokens)
	plan := StepPlan{Attended: attended, Sparse: ctx.CachingRatio < 1}
	gpuShare, cpuShare := p.split(ctx)
	if cpuShare > 0 {
		ctx.ChargeToGPU(int64(attended-1) * cpuShare)
		plan.FetchedTokens = attended - 1
	}
	if err := p.allocToken(ctx, gpuShare, cpuShare); err != nil {
		return plan, fmt.Errorf("pcie-split: new-token shares: %w", err)
	}
	if cpuShare > 0 {
		plan.OffloadedTokens = 1
	}
	return plan, nil
}

// Release implements Scheduler: free both static shares of every token.
func (p *PCIeSplit) Release(ctx *Context) {
	gpuShare, cpuShare := p.split(ctx)
	n := int64(p.tokens)
	ctx.Sys.FreeGPU(n * gpuShare)
	ctx.Sys.FreeCPU(n * cpuShare)
	p.tokens = 0
}

func (p *PCIeSplit) split(ctx *Context) (gpuShare, cpuShare int64) {
	tokenBytes := ctx.TokenBytes()
	cpuShare = int64(p.CPUFrac * float64(tokenBytes))
	return tokenBytes - cpuShare, cpuShare
}

// interface checks
var (
	_ Scheduler = (*GPUOnly)(nil)
	_ Scheduler = (*NoCache)(nil)
	_ Scheduler = (*PCIeSplit)(nil)
)
