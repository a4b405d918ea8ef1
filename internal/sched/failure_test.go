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

// tinyCPUContext builds a context on hardware whose CPU memory is barely
// larger than the weights — the failure-injection rig for CPU exhaustion.
func tinyCPUContext(t *testing.T, cpuBytes int64, recompute bool) (*Context, *alisa) {
	t.Helper()
	prof := memsim.V100_16G()
	prof.CPUMemBytes = cpuBytes
	sys := memsim.NewSystem(prof)
	cfg := model.MustByName("opt-6.7b")
	ctx := &Context{
		Sys: sys, Cost: costmodel.New(prof), Model: cfg,
		Batch: 64, Input: 128, Output: 512,
		CachingRatio: 0.2, KVBits: 16,
		Breakdown: trace.NewBreakdown(),
	}
	if err := sys.AllocGPU(ctx.WeightBytes()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AllocGPU(ctx.ActivationBytes()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AllocGPU(prof.ReserveBytes); err != nil {
		t.Fatal(err)
	}
	return ctx, manualAlisa(0.3, 200, recompute)
}

func TestAlisaCPUExhaustionWithoutRecomputeFails(t *testing.T) {
	// CPU holds only ~40 token positions; once GPU and CPU are both full,
	// a scheduler that may not delete has nowhere to put KV.
	ctx, a := tinyCPUContext(t, 40*33554432, false)
	err := a.Init(ctx)
	for j := 0; err == nil && j < ctx.Output; j++ {
		_, err = a.Step(ctx, j)
	}
	if err == nil {
		t.Fatal("expected failure when CPU memory runs out and recomputation is disabled")
	}
	var oom *memsim.OOMError
	if !errors.As(err, &oom) || oom.Device != "CPU" {
		t.Fatalf("expected CPU OOM cause, got %v", err)
	}
}

func TestAlisaCPUExhaustionWithRecomputeSurvives(t *testing.T) {
	// With recomputation allowed, CPU exhaustion turns into deletion: the
	// same rig must complete, deleting the oldest CPU tokens.
	ctx, a := tinyCPUContext(t, 40*33554432, true)
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	deleted := 0
	for j := 0; j < ctx.Output; j++ {
		plan, err := a.Step(ctx, j)
		if err != nil {
			t.Fatalf("step %d should survive via deletion: %v", j, err)
		}
		deleted += plan.DeletedTokens
		if _, cpu := ctx.Sys.Usage(); cpu > ctx.Sys.Prof.CPUMemBytes {
			t.Fatalf("CPU capacity violated at step %d", j)
		}
	}
	if deleted == 0 {
		t.Fatal("pressure run should have deleted tokens")
	}
}

func TestAlisaINT4QuartersTokenBytes(t *testing.T) {
	prof := memsim.V100_16G()
	mk := func(bits int) *Context {
		return &Context{
			Sys: memsim.NewSystem(prof), Cost: costmodel.New(prof),
			Model: model.MustByName("opt-6.7b"),
			Batch: 8, Input: 32, Output: 8,
			CachingRatio: 0.2, KVBits: bits,
			Breakdown: trace.NewBreakdown(),
		}
	}
	fp16 := mk(16).TokenBytes()
	int8 := mk(8).TokenBytes()
	int4 := mk(4).TokenBytes()
	if int8*2 != fp16 || int4*4 != fp16 {
		t.Fatalf("precision scaling broken: fp16=%d int8=%d int4=%d", fp16, int8, int4)
	}
}

func TestSchedulersDeterministic(t *testing.T) {
	// Identical contexts and schedulers must produce byte-identical
	// placement traffic — the whole simulator is deterministic.
	run := func() (int64, int64, float64) {
		ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 256, 0.2, 8)
		a := autoAlisa()
		if err := a.Init(ctx); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < ctx.Output; j++ {
			if _, err := a.Step(ctx, j); err != nil {
				t.Fatal(err)
			}
		}
		toCPU, toGPU, _ := ctx.Sys.TransferStats()
		return toCPU, toGPU, ctx.Sys.Clock()
	}
	c1, g1, t1 := run()
	c2, g2, t2 := run()
	if c1 != c2 || g1 != g2 || t1 != t2 {
		t.Fatalf("nondeterministic run: (%d,%d,%v) vs (%d,%d,%v)", c1, g1, t1, c2, g2, t2)
	}
}

func TestAlisaDeletedNeverResurrects(t *testing.T) {
	// Once deleted, a position stays deleted (recompute streams it
	// transiently, it is never re-cached) — the store must never move a
	// token out of the Deleted state.
	ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 384, 0.2, 16)
	a := manualAlisa(0.5, 50, true)
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	prevDeleted := 0
	for j := 0; j < ctx.Output; j++ {
		if _, err := a.Step(ctx, j); err != nil {
			t.Fatal(err)
		}
		del := a.store.Count(kvcache.Deleted)
		if del < prevDeleted {
			t.Fatalf("step %d: deleted count fell from %d to %d", j, prevDeleted, del)
		}
		prevDeleted = del
	}
}

func TestKeepLocalEvictionBeatsNewestFirst(t *testing.T) {
	// DESIGN.md §4.5 / paper §V-A: "we choose to keep the KV tensors for
	// the locally static tokens in the GPU". Inverting the eviction order
	// pushes the local window to CPU, so every step pays local fetches.
	run := func(newestFirst bool) (fetched int, clock float64) {
		ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 256, 0.2, 16)
		a := manualAlisa(0, ctx.Output, true)
		a.evictNewestFirst = newestFirst
		if err := a.Init(ctx); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < ctx.Output; j++ {
			plan, err := a.Step(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			fetched += plan.FetchedTokens
		}
		return fetched, ctx.Sys.Clock()
	}
	keepLocalFetched, keepLocalClock := run(false)
	invertedFetched, invertedClock := run(true)
	if keepLocalFetched >= invertedFetched {
		t.Fatalf("keep-local should fetch less: %d vs %d", keepLocalFetched, invertedFetched)
	}
	if keepLocalClock >= invertedClock {
		t.Fatalf("keep-local should be faster: %v vs %v", keepLocalClock, invertedClock)
	}
}
