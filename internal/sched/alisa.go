package sched

import (
	"fmt"
	"math"

	"repro/internal/kvcache"
	"repro/internal/memsim"
	"repro/internal/trace"
)

// alisa is the paper's three-phase token-level dynamic scheduler
// (Algorithm 2, Fig. 7(b)):
//
//	Phase I   — all KV tensors fit in GPU memory; no CPU traffic.
//	Phase II  — KV exceeds GPU capacity; the overflow lives in CPU memory
//	            at token granularity and the globally-selected tokens that
//	            land there are streamed in per step. Locally static tokens
//	            (the most recent window) stay GPU-resident, which is why
//	            eviction is oldest-first ("we choose to keep the KV
//	            tensors for the locally static tokens in the GPU").
//	Phase III — from step P2 on, the oldest β-fraction of the CPU-resident
//	            tokens is deleted and recomputed on demand, trading GPU
//	            compute for PCIe traffic.
//
// Phase transitions are capacity-triggered (Phase II) and step-triggered
// (Phase III at P2), with β and P2 chosen offline by Optimize. The table's
// "alisa" is auto-tuned; NewAlisaManual and NewAlisaNewestFirst are the
// ablation arms.
type alisa struct {
	// beta is the recompute ratio β: the share of would-be CPU-resident
	// tokens that is deleted instead, from Phase III on.
	beta float64
	// p2 is the Phase III switch step. Steps j ≥ p2 delete.
	p2 int
	// recompute false disables Phase III entirely (the Fig. 12(b)
	// "without recomputation" arm).
	recompute bool
	// autoTune runs the offline optimizer at Init to pick beta and p2.
	autoTune bool
	// evictNewestFirst inverts the offload order for the eviction-order
	// ablation: instead of keeping the locally static window GPU-resident
	// (the paper's heuristic), the newest tokens are offloaded first,
	// forcing the local window to stream from CPU memory every step.
	evictNewestFirst bool

	store *kvcache.TokenStore

	phase2Start int // first step that offloaded (-1 until seen)
	phase3Start int // first step that deleted (-1 until seen)
}

// autoAlisa returns the auto-tuned three-phase scheduler.
func autoAlisa() *alisa {
	return &alisa{recompute: true, autoTune: true, phase2Start: -1, phase3Start: -1}
}

// NewAlisaManual returns ALISA with explicit β and P2 (no tuning) — the
// Fig. 12(b) ablation, whose recompute=false arm disables Phase III.
func NewAlisaManual(beta float64, p2 int, recompute bool) Scheduler {
	return &alisa{beta: beta, p2: p2, recompute: recompute, phase2Start: -1, phase3Start: -1}
}

// NewAlisaNewestFirst returns the auto-tuned scheduler with the offload
// order inverted — the eviction-order ablation (§V-A), which streams the
// locally static window from CPU memory every step.
func NewAlisaNewestFirst() Scheduler {
	a := autoAlisa()
	a.evictNewestFirst = true
	return a
}

// Name implements Scheduler.
func (a *alisa) Name() string { return "alisa" }

// CloneScheduler implements Scheduler: parameters, phase markers, and the
// token store are deep-copied.
func (a *alisa) CloneScheduler() Scheduler {
	c := *a
	if a.store != nil {
		c.store = a.store.Clone()
	}
	return &c
}

// Init implements Scheduler: tune parameters, then place the prefill KV —
// GPU first, overflow to CPU oldest-first. A used instance empties its
// token store in place, keeping the backing array.
func (a *alisa) Init(ctx *Context) error {
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
		// Prefill KV does not fit: spill this token to CPU. The tensors
		// were produced on the GPU, so spilling costs a PCIe store. When
		// CPU memory is itself exhausted and recomputation is available,
		// the oldest CPU token gives way (early Phase III); without
		// recomputation the run cannot proceed soundly.
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
			old := a.store.OldestIn(kvcache.CPU, 1)
			if len(old) == 0 {
				// Nothing deletable: cache this token as already deleted;
				// it will be recomputed on demand.
				a.store.Append(kvcache.Deleted)
				a.markPhase3(0)
				break
			}
			ctx.Sys.FreeCPU(tokenBytes)
			a.store.Move(old[0], kvcache.Deleted)
			a.markPhase3(0)
		}
	}
	if ctx.KVBits < 16 {
		// Quantize the prefill KV once (KV compression, §V-B).
		ctx.Sys.Charge(trace.CatQuant, ctx.Cost.Quantize(int64(ctx.Input)*ctx.TokenBytesFP16()).Seconds)
	}
	return nil
}

// Step implements Scheduler for decode step j.
//
//alisa:hotpath
func (a *alisa) Step(ctx *Context, j int) (StepPlan, error) {
	n := a.store.Len()
	tokenBytes := ctx.TokenBytes()
	attended := attendedTokens(ctx, n)
	plan := StepPlan{Attended: attended, Sparse: ctx.CachingRatio < 1}

	// Split the budget per Algorithm 1: half locally static (most recent),
	// half globally dynamic from the earlier prefix.
	local := (attended - 1) / 2
	if ctx.CachingRatio >= 1 {
		local = n // dense: everything is "local"
	}
	if local > n {
		local = n
	}
	global := attended - 1 - local
	if global < 0 {
		global = 0
	}

	// One placement query splits the store at the local window. n grows
	// by one per step and local by at most one, so the prefix moves by
	// at most one position and the query is O(1) after the first step.
	prefix := n - local
	before := a.store.CountsBefore(prefix)
	_, cpu, del := a.store.Counts()

	// Locally static tokens: exact placement of the newest `local`
	// positions. Oldest-first eviction keeps these GPU-resident except
	// under extreme pressure.
	fetched := cpu - before[kvcache.CPU]
	recomputed := del - before[kvcache.Deleted]

	// Globally dynamic tokens: expected placement under the uniform
	// selection model over the prefix.
	if global > 0 && prefix > 0 {
		_, cpuW, delW := weightedFractions(before, prefix)
		fetched += int(math.Round(float64(global) * cpuW))
		recomputed += int(math.Round(float64(global) * delW))
	}

	if fetched > 0 {
		ctx.Sys.TransferToGPU(int64(fetched) * tokenBytes)
	}
	plan.FetchedTokens = fetched
	plan.RecomputedTokens = recomputed

	// Make room for and store the new token's KV on the GPU.
	offloaded, deleted, err := a.ensureGPUSpace(ctx, tokenBytes, j)
	if err != nil {
		return plan, err
	}
	if err := ctx.Sys.AllocGPU(tokenBytes); err != nil {
		return plan, fmt.Errorf("alisa: new-token KV: %w", err)
	}
	a.store.Append(kvcache.GPU)

	// Phase III: delete the oldest CPU tokens to hold the deletion share
	// at β of the CPU-side population.
	if a.recompute && j >= a.p2 && a.beta > 0 {
		deleted += a.enforceDeletionShare(ctx, tokenBytes, j)
	}
	plan.OffloadedTokens = offloaded
	plan.DeletedTokens = deleted
	return plan, nil
}

// ensureGPUSpace offloads GPU tokens to CPU until one more token fits,
// deleting from CPU if CPU memory is itself exhausted. The default
// oldest-first order is the paper's keep-local heuristic; the ablation
// inverts it.
func (a *alisa) ensureGPUSpace(ctx *Context, tokenBytes int64, j int) (offloaded, deleted int, err error) {
	for ctx.Sys.GPUHeadroom() < tokenBytes {
		var victims []int
		if a.evictNewestFirst {
			victims = a.store.NewestIn(kvcache.GPU, 1)
		} else {
			victims = a.store.OldestIn(kvcache.GPU, 1)
		}
		if len(victims) == 0 {
			return offloaded, deleted, fmt.Errorf("alisa: GPU full with no evictable KV (token bytes %d, headroom %d)",
				tokenBytes, ctx.Sys.GPUHeadroom())
		}
		if errCPU := ctx.Sys.AllocCPU(tokenBytes); errCPU != nil {
			// CPU full: delete the oldest CPU token to make room, which
			// is only sound when recomputation is available.
			if !a.recompute {
				return offloaded, deleted, fmt.Errorf("alisa: CPU memory exhausted and recomputation disabled: %w", errCPU)
			}
			old := a.store.OldestIn(kvcache.CPU, 1)
			if len(old) == 0 {
				return offloaded, deleted, fmt.Errorf("alisa: CPU memory exhausted with nothing deletable: %w", errCPU)
			}
			ctx.Sys.FreeCPU(tokenBytes)
			a.store.Move(old[0], kvcache.Deleted)
			deleted++
			a.markPhase3(j)
			continue
		}
		ctx.Sys.TransferToCPU(tokenBytes)
		ctx.Sys.FreeGPU(tokenBytes)
		a.store.Move(victims[0], kvcache.CPU)
		offloaded++
		a.markPhase2(j)
	}
	return offloaded, deleted, nil
}

// enforceDeletionShare deletes oldest CPU tokens until deleted ≥
// β·(deleted+cpu), freeing CPU memory (deletion itself is free; the cost
// returns later as recomputation).
func (a *alisa) enforceDeletionShare(ctx *Context, tokenBytes int64, j int) int {
	deleted := 0
	for {
		cpu := a.store.Count(kvcache.CPU)
		del := a.store.Count(kvcache.Deleted)
		if cpu == 0 || float64(del) >= a.beta*float64(del+cpu) {
			return deleted
		}
		victim := a.store.OldestIn(kvcache.CPU, 1)
		ctx.Sys.FreeCPU(tokenBytes)
		a.store.Move(victim[0], kvcache.Deleted)
		deleted++
		a.markPhase3(j)
	}
}

// Release implements Scheduler: drop every KV byte the sequence holds from
// both memories (deletion is free; recomputation never comes due because
// the sequence is finished or will restart from its prompt).
func (a *alisa) Release(ctx *Context) {
	if a.store == nil {
		return
	}
	gpuBytes, cpuBytes := a.store.Bytes(ctx.TokenBytes())
	ctx.Sys.FreeGPU(gpuBytes)
	ctx.Sys.FreeCPU(cpuBytes)
	a.store.Reset()
}

func (a *alisa) markPhase2(j int) {
	if a.phase2Start < 0 {
		a.phase2Start = j
	}
}

func (a *alisa) markPhase3(j int) {
	if a.phase3Start < 0 {
		a.phase3Start = j
	}
}

// Phase reports which scheduling phase step j executed in (1, 2 or 3),
// valid after the run.
func (a *alisa) Phase(j int) int {
	if a.phase3Start >= 0 && j >= a.phase3Start {
		return 3
	}
	if a.phase2Start >= 0 && j >= a.phase2Start {
		return 2
	}
	return 1
}

// PhaseStarts returns the first steps of Phases II and III (-1 when a
// phase never occurred).
func (a *alisa) PhaseStarts() (p2Start, p3Start int) {
	return a.phase2Start, a.phase3Start
}

// weightedFractions returns the probability that a globally-selected token
// lies on each device, given the location counts of the prefix's
// positions. The paper's heuristic keeps the locally static window on the
// GPU precisely because "global tokens are less predictable" (§VI-C) —
// the globally dynamic set drifts across the whole prefix — so selection
// is modelled as uniform over the prefix and the fractions are the exact
// placement shares under the store's current layout.
func weightedFractions(counts [3]int, prefix int) (gpuW, cpuW, delW float64) {
	if prefix <= 0 {
		return 0, 0, 0
	}
	total := float64(prefix)
	return float64(counts[kvcache.GPU]) / total,
		float64(counts[kvcache.CPU]) / total,
		float64(counts[kvcache.Deleted]) / total
}

// interface check
var _ Scheduler = (*alisa)(nil)

// sanity check that memsim errors propagate as *memsim.OOMError
var _ error = (*memsim.OOMError)(nil)
