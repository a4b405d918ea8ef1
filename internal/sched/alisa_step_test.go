package sched

import (
	"math"
	"testing"

	"repro/internal/kvcache"
	"repro/internal/memsim"
)

// scanStepCounts is the reference for Step's fetch and recompute counts:
// the scans the prefix cursor replaced, one over the local window and one
// over the prefix before it, on the store as it stands before the step.
func scanStepCounts(a *alisa, ctx *Context) (fetched, recomputed int) {
	n := a.store.Len()
	attended := attendedTokens(ctx, n)
	local := (attended - 1) / 2
	if ctx.CachingRatio >= 1 {
		local = n
	}
	if local > n {
		local = n
	}
	global := attended - 1 - local
	if global < 0 {
		global = 0
	}
	for pos := n - local; pos < n; pos++ {
		switch a.store.Loc(pos) {
		case kvcache.CPU:
			fetched++
		case kvcache.Deleted:
			recomputed++
		}
	}
	prefix := n - local
	if global > 0 && prefix > 0 {
		var counts [3]int
		for i := 0; i < prefix; i++ {
			counts[a.store.Loc(i)]++
		}
		total := float64(prefix)
		fetched += int(math.Round(float64(global) * (float64(counts[kvcache.CPU]) / total)))
		recomputed += int(math.Round(float64(global) * (float64(counts[kvcache.Deleted]) / total)))
	}
	return fetched, recomputed
}

// stepAgainstScan runs steps [from, to) of a, checking each returned plan
// against the reference scans, and returns the plans.
func stepAgainstScan(t *testing.T, a *alisa, ctx *Context, from, to int) []StepPlan {
	t.Helper()
	plans := make([]StepPlan, 0, to-from)
	for j := from; j < to; j++ {
		wantF, wantR := scanStepCounts(a, ctx)
		plan, err := a.Step(ctx, j)
		if err != nil {
			t.Fatalf("step %d: %v", j, err)
		}
		if plan.FetchedTokens != wantF || plan.RecomputedTokens != wantR {
			t.Fatalf("step %d: fetched/recomputed %d/%d, reference scan %d/%d",
				j, plan.FetchedTokens, plan.RecomputedTokens, wantF, wantR)
		}
		plans = append(plans, plan)
	}
	return plans
}

// TestAlisaStepMatchesScan checks Step's fetch and recompute counts
// against the reference scans at every step, across the configurations
// that reach each branch: dense and sparse Phase II, Phases II and III,
// the inverted eviction order, recomputation disabled, and a long Phase
// I, whose skipped placement queries leave the prefix cursor to catch up
// at the first query after the first offload.
func TestAlisaStepMatchesScan(t *testing.T) {
	manual := func(beta float64, p2 int, recompute, newestFirst bool) func() *alisa {
		return func() *alisa {
			a := manualAlisa(beta, p2, recompute)
			a.evictNewestFirst = newestFirst
			return a
		}
	}
	cases := []struct {
		name  string
		prof  memsim.Profile
		ratio float64
		sched func() *alisa
		// phase3 marks cases that must delete and recompute.
		phase3 bool
		// output is the decode length, 512 when 0; phase1 the least
		// number of steps the case must run in Phase I.
		output, phase1 int
	}{
		{name: "dense-32G", prof: memsim.V100_32G(), ratio: 1, sched: autoAlisa},
		{name: "sparse0.2-32G", prof: memsim.V100_32G(), ratio: 0.2, sched: autoAlisa},
		{name: "phase3-16G", prof: memsim.V100_16G(), ratio: 0.2, sched: manual(0.5, 50, true, false), phase3: true},
		{name: "newest-first-16G", prof: memsim.V100_16G(), ratio: 0.2, sched: manual(0.5, 50, true, true), phase3: true},
		{name: "no-recompute-32G", prof: memsim.V100_32G(), ratio: 0.2, sched: manual(0.6, 100, false, false)},
		{name: "phase1-then-3-32G", prof: memsim.V100_32G(), ratio: 0.2, sched: manual(0.5, 0, true, false), phase3: true,
			output: 1024, phase1: 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			output := c.output
			if output == 0 {
				output = 512
			}
			ctx := newTestContext(t, c.prof, "opt-6.7b", 64, 128, output, c.ratio, 16)
			a := c.sched()
			if err := a.Init(ctx); err != nil {
				t.Fatal(err)
			}
			var fetched, recomputed int
			for _, plan := range stepAgainstScan(t, a, ctx, 0, ctx.Output) {
				fetched += plan.FetchedTokens
				recomputed += plan.RecomputedTokens
			}
			// The comparison only means something where the counts do.
			if fetched == 0 {
				t.Fatal("no step fetched from CPU; the case does not reach Phase II")
			}
			if c.phase3 && recomputed == 0 {
				t.Fatal("no step recomputed; the case does not reach Phase III")
			}
			if p2, _ := a.PhaseStarts(); p2 < c.phase1 {
				t.Fatalf("first offload at step %d, want at least %d steps in Phase I", p2, c.phase1)
			}
		})
	}
}

// TestAlisaCloneStepsLikeOriginal clones the scheduler and its system
// mid-run, in Phase III, and steps both to the end: every plan, the
// clocks and the byte totals must match, and both must agree with the
// reference scans.
func TestAlisaCloneStepsLikeOriginal(t *testing.T) {
	ctx := newTestContext(t, memsim.V100_16G(), "opt-6.7b", 64, 128, 512, 0.2, 16)
	a := manualAlisa(0.5, 50, true)
	if err := a.Init(ctx); err != nil {
		t.Fatal(err)
	}
	const mid = 300
	stepAgainstScan(t, a, ctx, 0, mid)
	if a.Phase(mid-1) != 3 {
		t.Fatalf("step %d ran in phase %d; the clone should be taken in Phase III", mid-1, a.Phase(mid-1))
	}
	cctx := *ctx
	cctx.Sys = ctx.Sys.Clone()
	c := a.CloneScheduler().(*alisa)

	want := stepAgainstScan(t, a, ctx, mid, ctx.Output)
	got := stepAgainstScan(t, c, &cctx, mid, ctx.Output)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: clone planned %+v, original %+v", mid+i, got[i], want[i])
		}
	}
	if ctx.Sys.Clock() != cctx.Sys.Clock() {
		t.Fatalf("clocks diverged: original %v, clone %v", ctx.Sys.Clock(), cctx.Sys.Clock())
	}
	og, oc := ctx.Sys.Usage()
	cg, cc := cctx.Sys.Usage()
	if og != cg || oc != cc {
		t.Fatalf("usage diverged: original (%d, %d), clone (%d, %d)", og, oc, cg, cc)
	}
}

// BenchmarkAlisaStep times Step on one long sequence — opt-6.7b on a
// 32 GB V100, a 1,024-token prompt and 2,048 decode steps at 80% KV
// sparsity with INT8 KV — so ns/op is the mean cost of one decode step
// over the whole sequence. Init, which runs the offline optimizer, is
// outside the timer.
func BenchmarkAlisaStep(b *testing.B) {
	ctx := newTestContext(b, memsim.V100_32G(), "opt-6.7b", 1, 1024, 2048, 0.2, 8)
	a := autoAlisa()
	j := ctx.Output
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == ctx.Output {
			b.StopTimer()
			a.Release(ctx)
			if err := a.Init(ctx); err != nil {
				b.Fatal(err)
			}
			j = 0
			b.StartTimer()
		}
		if _, err := a.Step(ctx, j); err != nil {
			b.Fatal(err)
		}
		j++
	}
}
