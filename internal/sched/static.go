package sched

import (
	"fmt"

	"repro/internal/trace"
)

// static is the static-placement family (Table I classes FlexGen's KV
// placement as static; four more baselines are too): a fixed share of
// every token's KV stays in GPU memory for the whole run and the rest
// lives in CPU memory, streamed across PCIe at every decode step. The
// scheduler table's members differ only in that share and in where the
// weights live:
//
//   - gpu-only keeps every token on the GPU — Fig. 1's "GPU only", fastest
//     while it fits, OOM when it does not.
//   - deepspeed-zero (ZeRO-Inference [1]) keeps every token on the GPU
//     too, and the weights in CPU memory, streamed every forward pass —
//     which is why it hits OOM at large batch in Fig. 9 ("it does not
//     offload KV tensors").
//   - hf-accelerate (HuggingFace Accelerate [39]) offloads the whole KV
//     cache ("offloading the whole KV tensors to the CPU memory"), the
//     100 %-CPU bar of Fig. 1.
//   - flexgen [31] solves a head-level split once at Init from memory
//     capacity (Fig. 7(a): it "splits KV tensors along the head dimension
//     and remains static across different sequence lengths").
//   - NewPCIeSplit(f) keeps the fraction f on the CPU, Fig. 1's 50 % bar.
type static struct {
	name string
	// gpuFrac is the GPU share of every token's KV bytes.
	gpuFrac float64
	// solveHeads marks flexgen: Init sets gpuFrac from the GPU headroom.
	solveHeads bool
	// weightsOnCPU marks deepspeed-zero: the engine reserves the weights
	// in CPU memory and Step charges their exposed streaming time.
	weightsOnCPU bool

	tokens int
}

// NewPCIeSplit returns the Fig. 1 placement ablation ("50 % means the
// ratio of the KV tensors allocated to CPU/GPU memory"): cpuFrac of every
// token's KV lives in CPU memory and streams across PCIe at every step.
// The paper measures 50 % on CPU slowing inference ≈3× and 100 % ≈5×.
func NewPCIeSplit(cpuFrac float64) Scheduler {
	if cpuFrac < 0 || cpuFrac > 1 {
		panic(fmt.Sprintf("sched: CPU fraction %v out of [0,1]", cpuFrac))
	}
	return &static{name: "pcie-split", gpuFrac: 1 - cpuFrac}
}

// Name implements Scheduler.
func (s *static) Name() string { return s.name }

// CloneScheduler implements Scheduler.
func (s *static) CloneScheduler() Scheduler {
	c := *s
	return &c
}

// WeightsOnCPU reports whether s keeps the weights in CPU memory
// (deepspeed-zero): the engine then reserves them there, and Step charges
// streaming them. The serving loop refuses such a scheduler: weight
// streaming is engine-wide, not a per-request property.
func WeightsOnCPU(s Scheduler) bool {
	st, ok := s.(*static)
	return ok && st.weightsOnCPU
}

// Init implements Scheduler: solve flexgen's split, then place the
// prefill KV.
func (s *static) Init(ctx *Context) error {
	s.tokens = 0
	if s.solveHeads {
		// Offline linear solve: the largest head fraction whose share of
		// the peak KV fits the GPU headroom.
		heads := ctx.Model.Heads
		peakKV := float64(ctx.MaxSeq()) * float64(ctx.TokenBytes())
		frac := float64(ctx.Sys.GPUHeadroom()) / peakKV
		if frac > 1 {
			frac = 1
		}
		s.gpuFrac = float64(int(frac*float64(heads))) / float64(heads)
	}
	gpu, cpu := s.split(ctx)
	for i := 0; i < ctx.Input; i++ {
		if err := s.allocToken(ctx, gpu, cpu); err != nil {
			return fmt.Errorf("%s: prefill KV: %w", s.name, err)
		}
	}
	return nil
}

// Step implements Scheduler: stream the CPU share of every attended token
// in, charge the exposed weight streaming when the weights live on the
// CPU, and store the new token's shares to their static homes. Streaming
// the CPU share is the configuration the paper measures: Fig. 1
// attributes the slowdown to "moving KV tensors between CPU and GPU" on
// the PCIe bus, and Fig. 7(a) shows FlexGen's head split streamed per
// step.
func (s *static) Step(ctx *Context, j int) (StepPlan, error) {
	attended := attendedTokens(ctx, s.tokens)
	plan := StepPlan{Attended: attended, Sparse: ctx.CachingRatio < 1}
	gpu, cpu := s.split(ctx)
	if cpu > 0 {
		ctx.Sys.TransferToGPU(int64(attended-1) * cpu)
		plan.FetchedTokens = attended - 1
	}
	if s.weightsOnCPU {
		// Weight streaming overlaps with compute; charge only the exposed
		// remainder, as a stall. Counting the full weight bytes every
		// step would distort the byte statistics, and the stall is what
		// the end-to-end time sees.
		mha, ffn := StepComputeSeconds(ctx, attended, plan.Sparse)
		weightTime := float64(ctx.WeightBytes()) / ctx.Sys.Prof.PCIeBandwidth
		if exposed := weightTime - (mha + ffn); exposed > 0 {
			ctx.Sys.Charge(trace.CatTransfer, exposed)
		}
	}
	if err := s.allocToken(ctx, gpu, cpu); err != nil {
		return plan, fmt.Errorf("%s: new-token KV: %w", s.name, err)
	}
	if cpu > 0 {
		plan.OffloadedTokens = 1
	}
	return plan, nil
}

// Release implements Scheduler: free both static shares of every stored
// token.
func (s *static) Release(ctx *Context) {
	gpu, cpu := s.split(ctx)
	n := int64(s.tokens)
	ctx.Sys.FreeGPU(n * gpu)
	ctx.Sys.FreeCPU(n * cpu)
	s.tokens = 0
}

// split divides one token position's KV bytes between the devices. The
// GPU share rounds down and the CPU share takes the rest, so the two sum
// to TokenBytes exactly.
func (s *static) split(ctx *Context) (gpu, cpu int64) {
	t := ctx.TokenBytes()
	gpu = int64(float64(t) * s.gpuFrac)
	return gpu, t - gpu
}

// allocToken reserves one token's shares on both devices and stores the
// CPU share across PCIe, leaving nothing allocated on failure so the
// token count always matches live memory.
func (s *static) allocToken(ctx *Context, gpu, cpu int64) error {
	if err := ctx.Sys.AllocGPU(gpu); err != nil {
		return err
	}
	if cpu > 0 {
		if err := ctx.Sys.AllocCPU(cpu); err != nil {
			ctx.Sys.FreeGPU(gpu)
			return err
		}
		ctx.Sys.TransferToCPU(cpu)
	}
	s.tokens++
	return nil
}
