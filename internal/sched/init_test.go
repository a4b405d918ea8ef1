package sched

import (
	"fmt"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/kvcache"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/trace"
)

// initContext builds a reserved opt-6.7b context on a 16 GB V100 whose
// CPU memory holds cpuTokens positions beyond the reservations.
func initContext(t *testing.T, batch, input, kvBits int, cpuTokens int64) *Context {
	t.Helper()
	ctx := &Context{
		Model: model.MustByName("opt-6.7b"), Batch: batch, Input: input, Output: 64,
		CachingRatio: 0.2, KVBits: kvBits,
	}
	prof := memsim.V100_16G()
	prof.CPUMemBytes = cpuTokens * ctx.TokenBytes()
	ctx.Sys, ctx.Cost = memsim.NewSystem(prof), costmodel.New(prof)
	if err := ctx.ReserveStatic(false); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// perTokenInit is the reference for alisa's Init: every prompt token
// placed by an allocation of its own, GPU first and then spilled.
func perTokenInit(a *alisa, ctx *Context) error {
	if a.store == nil {
		a.store = kvcache.NewTokenStore()
	}
	a.store.Reset()
	a.phase2Start, a.phase3Start = -1, -1
	if a.autoTune {
		p := Optimize(ctx)
		a.beta, a.p2 = p.Beta, p.P2
	}
	tokenBytes := ctx.TokenBytes()
	for i := 0; i < ctx.Input; i++ {
		if err := ctx.Sys.AllocGPU(tokenBytes); err == nil {
			a.store.Append(kvcache.GPU)
			continue
		}
		for {
			errCPU := ctx.Sys.AllocCPU(tokenBytes)
			if errCPU == nil {
				ctx.Sys.TransferToCPU(tokenBytes)
				a.store.Append(kvcache.CPU)
				break
			}
			if !a.recompute {
				return fmt.Errorf("alisa: prefill KV exceeds CPU memory: %w", errCPU)
			}
			old, ok := a.store.Oldest(kvcache.CPU)
			if !ok {
				a.store.Append(kvcache.Deleted)
				a.markPhase3(0)
				break
			}
			ctx.Sys.FreeCPU(tokenBytes)
			a.store.Move(old, kvcache.Deleted)
			a.markPhase3(0)
		}
	}
	if ctx.KVBits < 16 {
		ctx.Sys.Charge(trace.CatQuant, ctx.Cost.Quantize(int64(ctx.Input)*ctx.TokenBytesFP16()).Seconds)
	}
	return nil
}

// layout lists a token store's locations position by position.
func layout(s *kvcache.TokenStore) []kvcache.Location {
	locs := make([]kvcache.Location, s.Len())
	for i := range locs {
		locs[i] = s.Loc(i)
	}
	return locs
}

// TestAlisaInitMatchesPerToken holds Init's one-allocation GPU prefix to
// the per-token reference on prompts that fit, that spill, and that
// fill CPU memory with and without recomputation: the same error, store
// layout and phase marks, and the same system — usage, peaks, clock,
// ledger and transfer counters.
func TestAlisaInitMatchesPerToken(t *testing.T) {
	auto := func(bool) *alisa { return autoAlisa() }
	manual := func(recompute bool) *alisa { return manualAlisa(0.3, 200, recompute) }
	cases := []struct {
		name                string
		batch, input, bits  int
		cpuTokens           int64
		sched               func(recompute bool) *alisa
		recompute           bool
		wantCPU, wantDelete bool
		wantErr             bool
	}{
		{name: "fits", batch: 4, input: 128, bits: 8, cpuTokens: 1 << 10, sched: auto},
		{name: "spills", batch: 64, input: 128, bits: 16, cpuTokens: 1 << 10, sched: auto, wantCPU: true},
		{name: "cpu-full-recompute", batch: 64, input: 128, bits: 16, cpuTokens: 40, sched: manual, recompute: true,
			wantCPU: true, wantDelete: true},
		{name: "no-cpu-recompute", batch: 64, input: 128, bits: 8, cpuTokens: 0, sched: manual, recompute: true,
			wantDelete: true},
		{name: "cpu-full-no-recompute", batch: 64, input: 128, bits: 16, cpuTokens: 40, sched: manual,
			wantCPU: true, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := c.sched(c.recompute), c.sched(c.recompute)
			gctx := initContext(t, c.batch, c.input, c.bits, c.cpuTokens)
			wctx := initContext(t, c.batch, c.input, c.bits, c.cpuTokens)
			gerr, werr := got.Init(gctx), perTokenInit(want, wctx)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("Init error %v, per-token %v", gerr, werr)
			}
			if (werr != nil) != c.wantErr {
				t.Fatalf("per-token error %v; the case expects an error: %v", werr, c.wantErr)
			}
			if *gctx.Sys != *wctx.Sys {
				t.Fatalf("system after Init\n%+v\nper-token\n%+v", *gctx.Sys, *wctx.Sys)
			}
			if g, w := layout(got.store), layout(want.store); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("layout after Init %v, per-token %v", g, w)
			}
			if got.phase3Start != want.phase3Start || got.beta != want.beta || got.p2 != want.p2 {
				t.Fatalf("phase 3 %d β %v p2 %d, per-token %d %v %d",
					got.phase3Start, got.beta, got.p2, want.phase3Start, want.beta, want.p2)
			}
			_, cpu, del := want.store.Counts()
			if (cpu > 0) != c.wantCPU || (del > 0) != c.wantDelete {
				t.Fatalf("per-token store holds %d CPU and %d deleted tokens; the case does not reach its branch", cpu, del)
			}
		})
	}
}

// perBlockInit is the reference for vllm's Init: the prompt's blocks
// allocated one at a time as the store grows.
func perBlockInit(v *vllm, ctx *Context) error {
	if v.store == nil {
		v.store = kvcache.NewBlockStore(vllmBlockSize)
	}
	v.store.Reset()
	blockBytes := v.blockBytes(ctx)
	for i := 0; i < ctx.Input; i++ {
		if v.store.WouldGrow() {
			if err := ctx.Sys.AllocGPU(blockBytes); err != nil {
				return fmt.Errorf("vllm: prefill block: %w", err)
			}
		}
		v.store.Append()
	}
	return nil
}

// TestVLLMInitMatchesPerBlock holds vllm's one-allocation Init to the
// per-block reference on prompts that fit (a whole and a partial last
// block) and on one that does not, whose failed Init must leave the same
// partial store, error and system.
func TestVLLMInitMatchesPerBlock(t *testing.T) {
	for _, c := range []struct {
		name         string
		batch, input int
		wantErr      bool
	}{
		{"whole-blocks", 4, 128, false},
		{"partial-block", 4, 131, false},
		{"does-not-fit", 64, 128, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			gctx := initContext(t, c.batch, c.input, 16, 0)
			wctx := initContext(t, c.batch, c.input, 16, 0)
			got, want := &vllm{}, &vllm{}
			gerr, werr := got.Init(gctx), perBlockInit(want, wctx)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("Init error %v, per-block %v", gerr, werr)
			}
			if (werr != nil) != c.wantErr {
				t.Fatalf("per-block error %v; the case expects an error: %v", werr, c.wantErr)
			}
			if c.wantErr && want.store.Blocks() == 0 {
				t.Fatal("per-block Init fails before its first block; the case does not reach a partial store")
			}
			if *gctx.Sys != *wctx.Sys {
				t.Fatalf("system after Init\n%+v\nper-block\n%+v", *gctx.Sys, *wctx.Sys)
			}
			g, w := got.store, want.store
			if g.Tokens() != w.Tokens() || g.Blocks() != w.Blocks() ||
				g.BlocksIn(kvcache.GPU) != w.BlocksIn(kvcache.GPU) || g.BlocksIn(kvcache.CPU) != w.BlocksIn(kvcache.CPU) {
				t.Fatalf("store after Init: %d tokens in %d blocks (%d GPU, %d CPU); per-block %d in %d (%d, %d)",
					g.Tokens(), g.Blocks(), g.BlocksIn(kvcache.GPU), g.BlocksIn(kvcache.CPU),
					w.Tokens(), w.Blocks(), w.BlocksIn(kvcache.GPU), w.BlocksIn(kvcache.CPU))
			}
			if g.WouldGrow() != w.WouldGrow() {
				t.Fatalf("WouldGrow %v after Init, per-block %v", g.WouldGrow(), w.WouldGrow())
			}
		})
	}
}
