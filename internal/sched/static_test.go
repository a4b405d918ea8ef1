package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
)

// staticMembers returns one fresh instance of every static-placement
// scheduler: the table's four members and the Fig. 1 split at the
// fractions the experiment runs.
func staticMembers() []Scheduler {
	return []Scheduler{
		MustByName("gpu-only"), MustByName("deepspeed-zero"), MustByName("hf-accelerate"), MustByName("flexgen"),
		NewPCIeSplit(0), NewPCIeSplit(0.5), NewPCIeSplit(1),
	}
}

// TestStaticSharesAndRelease checks the static family's byte accounting.
// Each token's GPU and CPU shares are non-negative and sum exactly to
// TokenBytes, for random head splits and Fig. 1 fractions at random batch
// and precision, and for every member as Init leaves it. Release frees
// exactly what the sequence holds, after a Step that succeeded and after
// one that failed with OOM because the device holding a share was full.
func TestStaticSharesAndRelease(t *testing.T) {
	checkSplit := func(s *static, ctx *Context) {
		t.Helper()
		gpu, cpu := s.split(ctx)
		if gpu < 0 || cpu < 0 || gpu+cpu != ctx.TokenBytes() {
			t.Fatalf("%s (GPU share %v): split (%d,%d) of %d bytes", s.name, s.gpuFrac, gpu, cpu, ctx.TokenBytes())
		}
	}
	rng := rand.New(rand.NewSource(3))
	opt := model.MustByName("opt-6.7b")
	for trial := 0; trial < 500; trial++ {
		ctx := &Context{Model: opt, Batch: 1 + rng.Intn(256), KVBits: []int{4, 8, 16}[rng.Intn(3)]}
		heads := 1 + rng.Intn(96)
		checkSplit(&static{name: "head-split", gpuFrac: float64(rng.Intn(heads+1)) / float64(heads)}, ctx)
		checkSplit(NewPCIeSplit(rng.Float64()).(*static), ctx)
	}

	const steps = 8
	for _, full := range []string{"", "GPU", "CPU"} {
		for _, sch := range staticMembers() {
			s := sch.(*static)
			ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 16, 128, 64, 1.0, 16)
			gpu0, cpu0 := ctx.Sys.Usage()
			if err := s.Init(ctx); err != nil {
				t.Fatalf("%s init: %v", s.name, err)
			}
			checkSplit(s, ctx)
			for j := 0; j < steps; j++ {
				if _, err := s.Step(ctx, j); err != nil {
					t.Fatalf("%s step %d: %v", s.name, j, err)
				}
			}
			// Fill one device: the next token's share on it cannot land,
			// and the failed Step must leave nothing allocated.
			gpuShare, cpuShare := s.split(ctx)
			gpu, cpu := ctx.Sys.Usage()
			var fillGPU, fillCPU int64
			wantOOM := false
			switch full {
			case "GPU":
				fillGPU, wantOOM = ctx.Sys.Prof.GPUMemBytes-gpu, gpuShare > 0
			case "CPU":
				fillCPU, wantOOM = ctx.Sys.Prof.CPUMemBytes-cpu, cpuShare > 0
			}
			if err := ctx.Sys.AllocGPU(fillGPU); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Sys.AllocCPU(fillCPU); err != nil {
				t.Fatal(err)
			}
			_, err := s.Step(ctx, steps)
			var oom *memsim.OOMError
			if wantOOM && (!errors.As(err, &oom) || oom.Device != full) || !wantOOM && err != nil {
				t.Fatalf("%s with %q full: step returned %v, want OOM %v", s.name, full, err, wantOOM)
			}
			ctx.Sys.FreeGPU(fillGPU)
			ctx.Sys.FreeCPU(fillCPU)
			s.Release(ctx)
			if gpu, cpu := ctx.Sys.Usage(); gpu != gpu0 || cpu != cpu0 {
				t.Fatalf("%s with %q full: Release left gpu=%d cpu=%d, want %d/%d", s.name, full, gpu, cpu, gpu0, cpu0)
			}
		}
	}
}

// TestFlexGenSplitsAtHeadGranularity checks flexgen's offline solve: the
// GPU share is a whole number of heads over the model's heads, the
// largest whose share of the peak KV fits the headroom Init found, and
// each token's bytes split at exactly that share.
func TestFlexGenSplitsAtHeadGranularity(t *testing.T) {
	for _, c := range []struct {
		prof  memsim.Profile
		batch int
	}{{memsim.V100_16G(), 64}, {memsim.V100_32G(), 64}, {memsim.H100_80G(), 8}} {
		ctx := newTestContext(t, c.prof, "opt-6.7b", c.batch, 128, 512, 1.0, 16)
		headroom := float64(ctx.Sys.GPUHeadroom())
		peakKV := float64(ctx.MaxSeq()) * float64(ctx.TokenBytes())
		f := MustByName("flexgen").(*static)
		if err := f.Init(ctx); err != nil {
			t.Fatal(err)
		}
		heads := ctx.Model.Heads
		gpuHeads := int(math.Round(f.gpuFrac * float64(heads)))
		if f.gpuFrac != float64(gpuHeads)/float64(heads) {
			t.Fatalf("%s b=%d: GPU share %v is not a whole-head fraction of %d heads", c.prof.Name, c.batch, f.gpuFrac, heads)
		}
		if float64(gpuHeads)/float64(heads)*peakKV > headroom {
			t.Fatalf("%s b=%d: %d/%d heads of the peak KV overflow the headroom", c.prof.Name, c.batch, gpuHeads, heads)
		}
		if gpuHeads < heads && float64(gpuHeads+1)/float64(heads)*peakKV <= headroom {
			t.Fatalf("%s b=%d: %d/%d heads is not the largest split that fits", c.prof.Name, c.batch, gpuHeads, heads)
		}
		gpu, cpu := f.split(ctx)
		if want := int64(float64(ctx.TokenBytes()) * float64(gpuHeads) / float64(heads)); gpu != want || gpu+cpu != ctx.TokenBytes() {
			t.Fatalf("%s b=%d: split (%d,%d), want GPU %d of %d", c.prof.Name, c.batch, gpu, cpu, want, ctx.TokenBytes())
		}
	}
}

func TestPCIeSplitStreamsCPUShare(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 4, 64, 32, 1.0, 16)
	p := NewPCIeSplit(0.5)
	plans := drive(t, p, ctx)

	tokenBytes := ctx.TokenBytes()
	// Prefill stores half of every prompt token to CPU; each step fetches
	// half of the attended context and stores half of the new token.
	toCPU, toGPU := ctx.Sys.TransferStats()
	wantToCPU := (int64(ctx.Input) + int64(ctx.Output)) * tokenBytes / 2
	if toCPU != wantToCPU {
		t.Fatalf("toCPU = %d, want %d", toCPU, wantToCPU)
	}
	var wantToGPU int64
	for j := 0; j < ctx.Output; j++ {
		wantToGPU += int64(ctx.Input+j) * (tokenBytes / 2)
	}
	if toGPU != wantToGPU {
		t.Fatalf("toGPU = %d, want %d", toGPU, wantToGPU)
	}
	for j, plan := range plans {
		if plan.FetchedTokens != ctx.Input+j {
			t.Fatalf("step %d fetched %d, want %d", j, plan.FetchedTokens, ctx.Input+j)
		}
	}
}

func TestPCIeSplitZeroFractionIsGPUOnly(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 4, 64, 16, 1.0, 16)
	drive(t, NewPCIeSplit(0), ctx)
	toCPU, toGPU := ctx.Sys.TransferStats()
	if toCPU != 0 || toGPU != 0 {
		t.Fatalf("zero CPU fraction moved bytes: %d/%d", toCPU, toGPU)
	}
}

func TestPCIeSplitSlowdownScalesWithFraction(t *testing.T) {
	// The Fig. 1 mechanism in isolation: more CPU share, more time.
	run := func(frac float64) float64 {
		ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 4, 128, 64, 1.0, 16)
		drive(t, NewPCIeSplit(frac), ctx)
		return ctx.Sys.Clock()
	}
	t0, t50, t100 := run(0), run(0.5), run(1.0)
	if !(t0 < t50 && t50 < t100) {
		t.Fatalf("slowdown not monotone: %v, %v, %v", t0, t50, t100)
	}
	// Transfer time is linear in the fraction, so the increments match.
	if math.Abs((t100-t50)-(t50-t0)) > 1e-6*(t100+1) {
		t.Fatalf("transfer increments not linear: %v vs %v", t100-t50, t50-t0)
	}
}

func TestPCIeSplitBadFractionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for fraction > 1")
		}
	}()
	NewPCIeSplit(1.5)
}

func TestGPUOnlyFitsSmallRun(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 4, 64, 32, 1.0, 16)
	plans := drive(t, MustByName("gpu-only"), ctx)
	toCPU, toGPU := ctx.Sys.TransferStats()
	if toCPU != 0 || toGPU != 0 {
		t.Fatal("gpu-only must never transfer")
	}
	if plans[0].Attended != ctx.Input+1 {
		t.Fatalf("first step attended %d", plans[0].Attended)
	}
}

func TestGPUOnlyOOM(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_32G(), "opt-6.7b", 64, 128, 512, 1.0, 16)
	g := MustByName("gpu-only")
	err := g.Init(ctx)
	for j := 0; err == nil && j < ctx.Output; j++ {
		_, err = g.Step(ctx, j)
	}
	var oom *memsim.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestFlexGenStaticSplitAndStreaming(t *testing.T) {
	// 16 GB card: most KV lands on the CPU, so CPU-side attention is
	// exposed beyond what GPU compute overlap hides.
	ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 512, 1.0, 16)
	f := MustByName("flexgen").(*static)
	plans := drive(t, f, ctx)
	if g := f.gpuFrac; g <= 0 || g >= 1 {
		t.Fatalf("expected partial GPU fraction under pressure, got %v", g)
	}
	toCPU, toGPU := ctx.Sys.TransferStats()
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
	f := MustByName("flexgen").(*static)
	drive(t, f, ctx)
	if g := f.gpuFrac; g != 1 {
		t.Fatalf("GPU fraction = %v, want 1 when everything fits", g)
	}
	toCPU, toGPU := ctx.Sys.TransferStats()
	if toCPU != 0 || toGPU != 0 {
		t.Fatal("no transfers expected when split is 1.0")
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
	}
	d := MustByName("deepspeed-zero").(*static)
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
	plans := drive(t, MustByName("hf-accelerate"), ctx)
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
