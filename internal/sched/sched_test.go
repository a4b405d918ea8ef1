package sched

import (
	"errors"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/kvcache"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/trace"
)

// newTestContext builds a context with weights and activations already
// reserved, as the engine does.
func newTestContext(t testing.TB, prof memsim.Profile, name string, batch, input, output int, ratio float64, kvBits int) *Context {
	t.Helper()
	sys := memsim.NewSystem(prof)
	cfg := model.MustByName(name)
	ctx := &Context{
		Sys:          sys,
		Cost:         costmodel.New(prof),
		Model:        cfg,
		Batch:        batch,
		Input:        input,
		Output:       output,
		CachingRatio: ratio,
		KVBits:       kvBits,
		Breakdown:    trace.NewBreakdown(),
	}
	if err := sys.AllocGPU(ctx.WeightBytes()); err != nil {
		t.Fatalf("weights do not fit: %v", err)
	}
	if err := sys.AllocGPU(ctx.ActivationBytes()); err != nil {
		t.Fatalf("activations do not fit: %v", err)
	}
	return ctx
}

func drive(t *testing.T, s Scheduler, ctx *Context) []StepPlan {
	t.Helper()
	if err := s.Init(ctx); err != nil {
		t.Fatalf("init: %v", err)
	}
	plans := make([]StepPlan, 0, ctx.Output)
	for j := 0; j < ctx.Output; j++ {
		plan, err := s.Step(ctx, j)
		if err != nil {
			t.Fatalf("step %d: %v", j, err)
		}
		plans = append(plans, plan)
	}
	return plans
}

func TestAlisaPhaseIWhenEverythingFits(t *testing.T) {
	// Small batch on a 32 GB card: KV never exceeds GPU, so no transfers.
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 4, 128, 128, 0.2, 16)
	a := NewAlisaManual(0.5, 64, true)
	drive(t, a, ctx)
	toCPU, toGPU, _ := ctx.Sys.TransferStats()
	if toCPU != 0 || toGPU != 0 {
		t.Fatalf("Phase I run moved bytes: toCPU=%d toGPU=%d", toCPU, toGPU)
	}
	if p2, p3 := a.PhaseStarts(); p2 != -1 || p3 != -1 {
		t.Fatalf("phases triggered unexpectedly: %d/%d", p2, p3)
	}
	for j := 0; j < ctx.Output; j++ {
		if a.Phase(j) != 1 {
			t.Fatalf("step %d phase = %d, want 1", j, a.Phase(j))
		}
	}
}

func TestAlisaEntersPhaseIIUnderPressure(t *testing.T) {
	// Batch 64 on V100-32G: KV at full length ≈ 21 GB with ~18 GB headroom,
	// so Phase II must trigger partway through.
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 64, 128, 512, 0.2, 16)
	a := NewAlisaManual(0, ctx.Output, true) // no Phase III
	plans := drive(t, a, ctx)
	p2, p3 := a.PhaseStarts()
	if p2 < 0 {
		t.Fatal("Phase II never triggered")
	}
	if p3 != -1 {
		t.Fatalf("Phase III should not trigger with β=0, got start %d", p3)
	}
	toCPU, _, _ := ctx.Sys.TransferStats()
	if toCPU == 0 {
		t.Fatal("Phase II should offload bytes to CPU")
	}
	// Before the switch, no step offloads; after, steps offload.
	for j, plan := range plans {
		if j < p2 && plan.OffloadedTokens > 0 {
			t.Fatalf("step %d offloaded before Phase II start %d", j, p2)
		}
	}
}

func TestAlisaPhaseIIIDeletesAndRecomputes(t *testing.T) {
	// Paper pairing: 7B models run on the 16 GB V100, where batch 64 KV
	// far exceeds the GPU and Phases II/III carry real load.
	ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 512, 0.2, 16)
	a := NewAlisaManual(0.6, 100, true)
	plans := drive(t, a, ctx)
	_, p3 := a.PhaseStarts()
	if p3 < 100 {
		t.Fatalf("Phase III started at %d, before P2=100", p3)
	}
	var deleted, recomputed int
	for _, plan := range plans {
		deleted += plan.DeletedTokens
		recomputed += plan.RecomputedTokens
	}
	if deleted == 0 {
		t.Fatal("β=0.6 should delete tokens in Phase III")
	}
	if recomputed == 0 {
		t.Fatal("deleted tokens should eventually be recomputed")
	}
}

func TestAlisaRecomputeDisabledNeverDeletes(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 64, 128, 512, 0.2, 16)
	a := NewAlisaManual(0.6, 100, false)
	plans := drive(t, a, ctx)
	for _, plan := range plans {
		if plan.DeletedTokens > 0 {
			t.Fatal("recompute-disabled scheduler deleted tokens")
		}
	}
}

func TestAlisaSparsityReducesTraffic(t *testing.T) {
	// Higher KV sparsity ⇒ fewer fetched tokens ⇒ fewer bytes moved —
	// the main contributor per Fig. 12(a).
	run := func(ratio float64) int64 {
		ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 64, 128, 512, ratio, 16)
		drive(t, NewAlisaManual(0, ctx.Output, true), ctx)
		_, toGPU, _ := ctx.Sys.TransferStats()
		return toGPU
	}
	dense := run(1.0)
	sparse := run(0.2)
	if sparse >= dense {
		t.Fatalf("sparse fetch traffic %d should be below dense %d", sparse, dense)
	}
}

func TestAlisaINT8HalvesTokenBytes(t *testing.T) {
	ctx16 := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 8, 32, 8, 0.2, 16)
	ctx8 := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 8, 32, 8, 0.2, 8)
	if ctx8.TokenBytes()*2 != ctx16.TokenBytes() {
		t.Fatalf("INT8 token bytes %d should be half of FP16 %d", ctx8.TokenBytes(), ctx16.TokenBytes())
	}
}

func TestAlisaGPUNeverExceedsCapacity(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 32, 128, 256, 0.2, 16)
	a := NewAlisaManual(0.3, 50, true)
	if err := a.Init(ctx); err != nil {
		t.Fatalf("init: %v", err)
	}
	for j := 0; j < ctx.Output; j++ {
		if _, err := a.Step(ctx, j); err != nil {
			t.Fatalf("step %d: %v", j, err)
		}
		gpu, _ := ctx.Sys.Usage()
		if gpu > ctx.Sys.Prof.GPUMemBytes {
			t.Fatalf("GPU usage %d exceeds capacity at step %d", gpu, j)
		}
	}
}

func TestOptimizerConstraints(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 64, 128, 512, 0.2, 16)
	p := Optimize(ctx)
	if p.P1 < 0 || p.P1 > p.P2 || p.P2 > ctx.Output {
		t.Fatalf("phase steps violate 0 ≤ p1 ≤ p2 ≤ n: %+v", p)
	}
	if p.Alpha < 0 || p.Alpha >= 1 || p.Beta < 0 || p.Beta >= 1 {
		t.Fatalf("ratios out of range: %+v", p)
	}
	if p.PredictedSeconds <= 0 {
		t.Fatalf("predicted cost must be positive: %+v", p)
	}
}

func TestOptimizerSkipsPhasesWhenEverythingFits(t *testing.T) {
	ctx := newTestContext(t, memsim.H100_80G(), "opt-6.7b", 4, 64, 64, 0.2, 16)
	p := Optimize(ctx)
	if p.P1 != ctx.Output || p.Beta != 0 {
		t.Fatalf("tiny workload should stay in Phase I: %+v", p)
	}
	if p.Alpha != 0 {
		t.Fatalf("no offload needed, α should be 0: %+v", p)
	}
}

func TestOptimizerPicksRecomputeOnFastGPU(t *testing.T) {
	// On H100 recomputing a token is cheaper than fetching it over PCIe
	// (TestRecomputeTimeProperties in costmodel), so the optimizer should
	// engage Phase III for a memory-pressured workload.
	ctx := newTestContext(t, memsim.H100_80G(), "opt-30b", 64, 128, 512, 0.2, 16)
	p := Optimize(ctx)
	if p.Beta == 0 {
		t.Fatalf("optimizer should choose recomputation on H100: %+v", p)
	}
	if p.P2 >= ctx.Output {
		t.Fatalf("Phase III should start before the run ends: %+v", p)
	}
}

func TestFlexGenStaticSplitAndStreaming(t *testing.T) {
	// 16 GB card: most KV lands on the CPU, so CPU-side attention is
	// exposed beyond what GPU compute overlap hides.
	ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 512, 1.0, 16)
	f := NewFlexGen()
	plans := drive(t, f, ctx)
	if g := f.GPUFraction(); g <= 0 || g >= 1 {
		t.Fatalf("expected partial GPU fraction under pressure, got %v", g)
	}
	toCPU, toGPU, _ := ctx.Sys.TransferStats()
	if toCPU == 0 {
		t.Fatal("FlexGen must store the CPU share over PCIe")
	}
	if toGPU == 0 {
		t.Fatal("FlexGen with CPU share must stream KV in every step")
	}
	// Dense attention: every plan attends to the full context.
	for j, plan := range plans {
		if plan.Attended != ctx.Input+j+1 {
			t.Fatalf("step %d attended %d, want dense %d", j, plan.Attended, ctx.Input+j+1)
		}
	}
}

func TestFlexGenFullGPUWhenFits(t *testing.T) {
	ctx := newTestContext(t, memsim.H100_80G(), "opt-6.7b", 8, 128, 128, 1.0, 16)
	f := NewFlexGen()
	drive(t, f, ctx)
	if g := f.GPUFraction(); g != 1 {
		t.Fatalf("GPU fraction = %v, want 1 when everything fits", g)
	}
	toCPU, toGPU, _ := ctx.Sys.TransferStats()
	if toCPU != 0 || toGPU != 0 {
		t.Fatal("no transfers expected when split is 1.0")
	}
}

func TestVLLMWaves(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 512, 1.0, 16)
	v := NewVLLM()
	waves, err := v.Waves(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) < 2 {
		t.Fatalf("batch 64 at 640 tokens should not fit one wave: %v", waves)
	}
	total := 0
	for _, w := range waves {
		if w <= 0 {
			t.Fatalf("non-positive wave: %v", waves)
		}
		total += w
	}
	if total != ctx.Batch {
		t.Fatalf("waves sum to %d, want %d", total, ctx.Batch)
	}
}

func TestVLLMSingleWaveWhenFits(t *testing.T) {
	ctx := newTestContext(t, memsim.H100_80G(), "opt-6.7b", 8, 128, 128, 1.0, 16)
	waves, err := NewVLLM().Waves(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(waves) != 1 || waves[0] != 8 {
		t.Fatalf("waves = %v, want [8]", waves)
	}
}

func TestVLLMBlockGranularAllocation(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 4, 100, 8, 1.0, 16)
	v := NewVLLM()
	gpuBefore, _ := ctx.Sys.Usage()
	drive(t, v, ctx)
	gpuAfter, _ := ctx.Sys.Usage()
	used := gpuAfter - gpuBefore
	blockBytes := int64(v.BlockSize) * ctx.TokenBytes()
	if used%blockBytes != 0 {
		t.Fatalf("vLLM allocation %d not block-granular (block %d)", used, blockBytes)
	}
	// 108 tokens at block 16 = 7 blocks.
	if want := int64(7) * blockBytes; used != want {
		t.Fatalf("allocated %d, want %d", used, want)
	}
}

func TestDeepSpeedOOMAtLargeBatch(t *testing.T) {
	// Batch 64, OPT-6.7B on a 32 GB card: dense KV (≈21 GB) plus nothing
	// else fits, but activations + KV exceed capacity at full length.
	sys := memsim.NewSystem(memsim.V100_16G())
	ctx := &Context{
		Sys: sys, Cost: costmodel.New(memsim.V100_16G()),
		Model: model.MustByName("opt-6.7b"),
		Batch: 64, Input: 128, Output: 512,
		CachingRatio: 1.0, KVBits: 16,
		Breakdown: trace.NewBreakdown(),
	}
	d := NewDeepSpeed()
	// DeepSpeed keeps weights on CPU.
	if !d.WeightsOnCPU() {
		t.Fatal("DeepSpeed should keep weights on CPU")
	}
	if err := sys.AllocCPU(ctx.WeightBytes()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AllocGPU(ctx.ActivationBytes()); err != nil {
		t.Fatal(err)
	}
	err := d.Init(ctx)
	for j := 0; err == nil && j < ctx.Output; j++ {
		_, err = d.Step(ctx, j)
	}
	var oom *memsim.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected GPU OOM, got %v", err)
	}
}

func TestHFAccelerateStreamsEverything(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 16, 64, 64, 1.0, 16)
	plans := drive(t, NewHFAccelerate(), ctx)
	gpuKV, cpuKV := int64(0), int64(0)
	_ = gpuKV
	_, cpu := ctx.Sys.Usage()
	if cpu < ctx.TokenBytes()*int64(ctx.Input) {
		t.Fatalf("CPU should hold all KV, has %d", cpu)
	}
	cpuKV = cpu
	_ = cpuKV
	for j, plan := range plans {
		if plan.FetchedTokens != ctx.Input+j {
			t.Fatalf("step %d fetched %d, want whole context %d", j, plan.FetchedTokens, ctx.Input+j)
		}
	}
}

func TestGPUOnlyOOM(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 64, 128, 512, 1.0, 16)
	g := NewGPUOnly()
	err := g.Init(ctx)
	for j := 0; err == nil && j < ctx.Output; j++ {
		_, err = g.Step(ctx, j)
	}
	var oom *memsim.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestNoCachePlansFullRecompute(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 4, 16, 8, 1.0, 16)
	plans := drive(t, NewNoCache(), ctx)
	for j, plan := range plans {
		if !plan.FullRecompute {
			t.Fatalf("step %d should be full recompute", j)
		}
		if plan.Attended != ctx.Input+j+1 {
			t.Fatalf("step %d attended %d, want %d", j, plan.Attended, ctx.Input+j+1)
		}
	}
	gpu, cpu := ctx.Sys.Usage()
	base := ctx.WeightBytes() + ctx.ActivationBytes()
	if gpu != base || cpu != 0 {
		t.Fatalf("no-cache should hold no KV: gpu=%d cpu=%d base=%d", gpu, cpu, base)
	}
}

func TestByNameAndNames(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Name() = %q, want %q", s.Name(), name)
		}
	}
	for _, extra := range []string{"gpu-only", "no-cache"} {
		if _, err := ByName(extra); err != nil {
			t.Fatalf("ByName(%q): %v", extra, err)
		}
	}
	if _, err := ByName("magic"); err == nil {
		t.Fatal("expected error for unknown scheduler")
	}
}

func TestTokenStoreConservationThroughRun(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 64, 128, 256, 0.2, 16)
	a := NewAlisaManual(0.5, 50, true)
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < ctx.Output; j++ {
		if _, err := a.Step(ctx, j); err != nil {
			t.Fatal(err)
		}
		total := a.store.Count(kvcache.GPU) + a.store.Count(kvcache.CPU) + a.store.Count(kvcache.Deleted)
		if total != ctx.Input+j+1 {
			t.Fatalf("step %d: store holds %d positions, want %d", j, total, ctx.Input+j+1)
		}
	}
}
