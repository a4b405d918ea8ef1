// Package core is ALISA's inference engine — the composition of the
// paper's three techniques over the simulated GPU–CPU system:
//
//   - Sparse Window Attention sets the per-step token budget
//     (KVSparsity → caching ratio, Algorithm 1's k).
//   - A sched.Scheduler places and moves KV tensors (the three-phase
//     dynamic scheduler for ALISA, or one of the baselines).
//   - KV compression stores and ships KV as INT8 (KVBits = 8).
//
// Run simulates a full inference — prefill plus n decode steps — charging
// compute through the roofline cost model and transfers through the
// memsim system, and returns the end-to-end breakdown, per-step memory
// trajectory, and token throughput the paper's evaluation reports.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/events"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Config specifies one simulated inference run.
type Config struct {
	Model     model.Config
	Profile   memsim.Profile
	Scheduler sched.Scheduler

	Batch  int
	Input  int // prompt length s
	Output int // generated tokens n

	// KVSparsity ∈ [0, 1) is the fraction of cached tokens SWA skips each
	// step; 0 means dense attention. The paper's headline setting is 0.8.
	KVSparsity float64
	// KVBits is the stored KV precision: 16 (FP16), 8 (INT8, §V-B), or
	// 4 (the INT4 extension the paper cites as viable for OPT).
	KVBits int

	// Observer's Step callback, when set, receives one events.Step per
	// decode step as the run unfolds, inline on the simulation loop. The
	// lockstep engine emits no other kind.
	Observer events.Observer
}

// Validate reports configuration errors before a run.
func (c Config) Validate() error {
	switch {
	case c.Scheduler == nil:
		return errors.New("core: scheduler required")
	case c.Batch <= 0 || c.Input <= 0 || c.Output <= 0:
		return fmt.Errorf("core: batch/input/output must be positive, got %d/%d/%d", c.Batch, c.Input, c.Output)
	case c.KVSparsity < 0 || c.KVSparsity >= 1:
		return fmt.Errorf("core: KV sparsity must be in [0,1), got %v", c.KVSparsity)
	case c.KVBits != 4 && c.KVBits != 8 && c.KVBits != 16:
		return fmt.Errorf("core: KV bits must be 4, 8 or 16, got %d", c.KVBits)
	case c.Model.Layers <= 0:
		return errors.New("core: model config required")
	case c.Input+c.Output > c.Model.MaxSeq:
		return fmt.Errorf("core: sequence %d exceeds model max %d", c.Input+c.Output, c.Model.MaxSeq)
	}
	return nil
}

// StepSample records one decode step's timing for time-per-step figures.
type StepSample struct {
	Step    int
	Seconds float64
}

// Result is the outcome of a simulated run.
type Result struct {
	Scheduler string
	// Breakdown is the run's time ledger: every wave's charges by
	// category, booked on one ledger carried from wave to wave.
	Breakdown trace.Breakdown
	Memory    trace.MemSeries
	Steps     []StepSample

	TotalSeconds float64
	Tokens       int     // generated tokens across the batch
	Throughput   float64 // tokens per second, the paper's metric

	// OOM is set when the run died with an out-of-memory error; Err holds
	// the cause. Partial measurements up to the failure are retained.
	OOM bool
	Err error

	// Waves lists the sub-batch sizes the scheduler served sequentially
	// (len 1 except for vLLM-style admission control).
	Waves []int

	// PhaseStarts holds the first decode steps of ALISA's Phases II and
	// III, -1 when the phase never triggered or the scheduler has no
	// phases.
	Phase2Start, Phase3Start int

	// PhaseOf maps each decode step to its phase (1-3) for phase-resolved
	// reporting; nil for schedulers without phases.
	PhaseOf []int
}

// Run simulates the configured inference and returns its measurements.
// Out-of-memory failures return a Result with OOM set alongside the error,
// because OOM is itself a reported datapoint in Fig. 1 and Fig. 9.
//
// Cancellation is checked before every decode step: when ctx is cancelled
// mid-run, Run stops and returns the partial Result measured so far
// alongside ctx.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	res := &Result{
		Scheduler:   cfg.Scheduler.Name(),
		Phase2Start: -1,
		Phase3Start: -1,
	}

	waves := []int{cfg.Batch}
	// Wave planning needs a context with the full batch and a scratch
	// system to measure headroom.
	if wp, ok := cfg.Scheduler.(sched.WavePlanner); ok {
		scratch := memsim.NewSystem(cfg.Profile)
		sctx := newContext(cfg, scratch, cfg.Batch)
		if err := reserveStatic(cfg, sctx); err != nil {
			return failed(res, err)
		}
		w, err := wp.Waves(sctx)
		if err != nil {
			return failed(res, err)
		}
		waves = w
	}
	res.Waves = waves

	for _, wave := range waves {
		if err := runWave(ctx, cfg, wave, res); err != nil {
			return failed(res, err)
		}
	}

	res.Tokens = cfg.Batch * cfg.Output
	if res.TotalSeconds > 0 {
		res.Throughput = float64(res.Tokens) / res.TotalSeconds
	}
	return res, nil
}

func failed(res *Result, err error) (*Result, error) {
	res.Err = err
	var oom *memsim.OOMError
	if errors.As(err, &oom) {
		res.OOM = true
	}
	return res, err
}

func newContext(cfg Config, sys *memsim.System, batch int) *sched.Context {
	return &sched.Context{
		Sys:          sys,
		Cost:         costmodel.New(cfg.Profile),
		Model:        cfg.Model,
		Batch:        batch,
		Input:        cfg.Input,
		Output:       cfg.Output,
		CachingRatio: 1 - cfg.KVSparsity,
		KVBits:       cfg.KVBits,
	}
}

// reserveStatic allocates weights and activations for the run: weights on
// GPU unless the scheduler streams them from CPU (DeepSpeed-ZeRO).
func reserveStatic(cfg Config, ctx *sched.Context) error {
	weightsOnCPU := false
	if w, ok := cfg.Scheduler.(interface{ WeightsOnCPU() bool }); ok {
		weightsOnCPU = w.WeightsOnCPU()
	}
	if err := ctx.Sys.AllocGPU(cfg.Profile.ReserveBytes); err != nil {
		return fmt.Errorf("core: runtime reserve: %w", err)
	}
	if weightsOnCPU {
		if err := ctx.Sys.AllocCPU(ctx.WeightBytes()); err != nil {
			return fmt.Errorf("core: weights: %w", err)
		}
	} else {
		if err := ctx.Sys.AllocGPU(ctx.WeightBytes()); err != nil {
			return fmt.Errorf("core: weights: %w", err)
		}
	}
	if err := ctx.Sys.AllocGPU(ctx.ActivationBytes()); err != nil {
		return fmt.Errorf("core: activations: %w", err)
	}
	return nil
}

// runWave simulates one wave on a fresh system whose ledger continues the
// previous waves'. On every exit, the OOM and cancellation ones included,
// the wave's clock joins TotalSeconds and its ledger becomes the Result's
// breakdown.
func runWave(ctx context.Context, cfg Config, wave int, res *Result) error {
	sys := memsim.NewSystem(cfg.Profile)
	sys.SeedLedger(res.Breakdown)
	sctx := newContext(cfg, sys, wave)
	base := res.TotalSeconds // absolute clock offset of this wave
	defer func() {
		res.TotalSeconds += sys.Clock()
		res.Breakdown = sys.Ledger()
	}()

	if err := reserveStatic(cfg, sctx); err != nil {
		return err
	}

	// Prefill: one pass over the prompt, then the scheduler places its KV.
	sys.Charge(trace.CatPrefill, sctx.Cost.PrefillTime(cfg.Model, wave, cfg.Input))
	if err := cfg.Scheduler.Init(sctx); err != nil {
		return err
	}

	for j := 0; j < cfg.Output; j++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		before := sys.Clock()
		plan, err := cfg.Scheduler.Step(sctx, j)
		if err != nil {
			return err
		}
		chargeCompute(sctx, plan)

		gpu, cpu := sys.Usage()
		res.Memory.Record(j, gpu, cpu)
		res.Steps = append(res.Steps, StepSample{Step: j, Seconds: sys.Clock() - before})
		if f := cfg.Observer.Step; f != nil {
			f(events.Step{
				Step: j, Batch: wave,
				Clock: base + sys.Clock(), Seconds: sys.Clock() - before,
			})
		}
	}

	if ph, ok := cfg.Scheduler.(interface{ Phase(j int) int }); ok {
		res.PhaseOf = make([]int, cfg.Output)
		for j := 0; j < cfg.Output; j++ {
			res.PhaseOf[j] = ph.Phase(j)
		}
	}
	if ps, ok := cfg.Scheduler.(interface{ PhaseStarts() (int, int) }); ok {
		res.Phase2Start, res.Phase3Start = ps.PhaseStarts()
	}
	return nil
}

func chargeCompute(ctx *sched.Context, plan sched.StepPlan) {
	if plan.FullRecompute {
		// KV caching disabled: the step reprocesses the whole sequence.
		ctx.Sys.Charge(trace.CatFullForward, ctx.Cost.PrefillTime(ctx.Model, ctx.Batch, plan.Attended))
		return
	}
	sched.ChargeStepCompute(ctx, plan)
}
