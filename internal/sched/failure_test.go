package sched

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/kvcache"
	"repro/internal/memsim"
	"repro/internal/model"
)

// tinyCPUContext builds a context on hardware whose CPU memory is barely
// larger than the weights — the failure-injection rig for CPU exhaustion.
func tinyCPUContext(t *testing.T, cpuBytes int64, recompute bool) (*Context, *alisa) {
	t.Helper()
	prof := memsim.V100_16G()
	prof.CPUMemBytes = cpuBytes
	ctx := &Context{
		Sys: memsim.NewSystem(prof), Cost: costmodel.New(prof), Model: model.MustByName("opt-6.7b"),
		Batch: 64, Input: 128, Output: 512,
		CachingRatio: 0.2, KVBits: 16,
	}
	if err := ctx.ReserveStatic(false); err != nil {
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
		}
	}
	fp16 := mk(16).TokenBytes()
	int8 := mk(8).TokenBytes()
	int4 := mk(4).TokenBytes()
	if int8*2 != fp16 || int4*4 != fp16 {
		t.Fatalf("precision scaling broken: fp16=%d int8=%d int4=%d", fp16, int8, int4)
	}
}

// TestSchedulersDeterministic pins determinism and the reuse contract
// of Scheduler.Init for every table member the serving loop accepts:
// identical contexts give byte-identical placement traffic, clocks and
// step plans, whether the instance is fresh, reused after Release, or
// reused after an Init that failed for lack of memory. A run that fails
// (gpu-only runs out of GPU memory here) must fail the same way.
func TestSchedulersDeterministic(t *testing.T) {
	type outcome struct {
		toCPU, toGPU   int64
		clock          float64
		plans          []StepPlan
		err            string
		phase2, phase3 int // alisa's phase starts, which the engine reports
	}
	run := func(s Scheduler) (outcome, *Context) {
		ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 256, 0.2, 8)
		var o outcome
		err := s.Init(ctx)
		for j := 0; err == nil && j < ctx.Output; j++ {
			var plan StepPlan
			if plan, err = s.Step(ctx, j); err == nil {
				o.plans = append(o.plans, plan)
			}
		}
		if err != nil {
			o.err = err.Error()
		}
		o.toCPU, o.toGPU = ctx.Sys.TransferStats()
		o.clock = ctx.Sys.Clock()
		if a, ok := s.(*alisa); ok {
			o.phase2, o.phase3 = a.PhaseStarts()
		}
		return o, ctx
	}
	same := func(a, b outcome) bool {
		return a.toCPU == b.toCPU && a.toGPU == b.toGPU && a.clock == b.clock &&
			slices.Equal(a.plans, b.plans) && a.err == b.err &&
			a.phase2 == b.phase2 && a.phase3 == b.phase3
	}
	for _, name := range Registered() {
		s := MustByName(name)
		if WeightsOnCPU(s) {
			continue // not servable: engine-wide weight streaming
		}
		fresh, ctx := run(s)
		s.Release(ctx)
		if reused, _ := run(s); !same(fresh, reused) {
			t.Errorf("%s: rerun after Release differs from a fresh instance:\n%+v\n%+v", name, reused, fresh)
		}

		// No room for KV on either device. alisa caches an unplaceable
		// prompt as deleted and no-cache caches nothing; every other
		// member fails.
		prof := memsim.V100_16G()
		prof.CPUMemBytes = 0
		starved := newTestContext(t, prof, "opt-6.7b", 64, 128, 256, 0.2, 8)
		if err := starved.Sys.AllocGPU(starved.Sys.GPUHeadroom()); err != nil {
			t.Fatal(err)
		}
		if err := s.Init(starved); err == nil && name != "alisa" && name != "no-cache" {
			t.Fatalf("%s: Init with no KV room succeeded", name)
		}
		if reused, _ := run(s); !same(fresh, reused) {
			t.Errorf("%s: rerun after a starved Init differs from a fresh instance:\n%+v\n%+v", name, reused, fresh)
		}
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
