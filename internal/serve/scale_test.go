package serve

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/events"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/workload"
)

// preemptionConfig is the forced-GPU-pressure workload of
// TestServePreemptionRecovers, parameterized by request count: gpu-only
// cannot offload, so the long dense sequences evict each other
// constantly.
func preemptionConfig(n int) Config {
	return Config{
		Model:     model.MustByName("opt-6.7b"),
		Profile:   memsim.V100_16G(),
		Scheduler: "gpu-only",
		Trace:     workload.UniformTrace(n, 0.05, 1024, 512),
		KVBits:    16,
		MaxBatch:  4,
	}
}

// TestRequeueAllocFree is the satellite regression guard for the old
// requeue fallback (a fresh-slice prepend when the head slack ran out):
// a preemption requeue is a pop followed by a push under the original
// ticket, and into warm queue capacity that cycle must allocate nothing,
// no matter how deep the backlog is.
func TestRequeueAllocFree(t *testing.T) {
	var q reqQueue
	for i := 0; i < 1024; i++ {
		q.Push(workload.Request{ID: i, Arrival: float64(i % 37), Input: 8, Output: 8})
	}
	allocs := testing.AllocsPerRun(100, func() {
		// Admission pop, then the preemption's requeue — the exact pair
		// the serving loop performs — plus an interleaved fresh push/pop
		// at stable occupancy.
		req, seq := q.Pop()
		q.Requeue(req, seq)
		req2, seq2 := q.Pop()
		q.Requeue(req2, seq2)
	})
	if allocs != 0 {
		t.Errorf("requeue cycle allocates %.0f per op into warm capacity, want 0", allocs)
	}
}

// TestPreemptionAllocsBounded holds the end-to-end line: on the forced-
// pressure workload, allocations may scale only with admission probes
// (each failed probe formats one placement error — pre-existing), never
// with backlog size; the per-preemption allocation count stays a small
// constant instead of the old fallback's whole-queue copy.
func TestPreemptionAllocsBounded(t *testing.T) {
	ctx := context.Background()
	run := func(n int) (float64, int) {
		cfg := preemptionConfig(n)
		res, err := Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Run(ctx, cfg); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, res.Preemptions
	}
	small, preS := run(4)
	large, preL := run(8)
	if preL <= preS {
		t.Fatalf("workload did not scale preemptions: %d then %d", preS, preL)
	}
	perPreemption := (large - small) / float64(preL-preS)
	// Headroom over the ~20 observed: -race instrumentation inflates
	// allocation counts. A whole-queue copy would blow past this as soon
	// as the backlog grows.
	if perPreemption > 64 {
		t.Errorf("%.1f allocations per additional preemption (%.0f→%.0f allocs across %d→%d preemptions), want a small constant",
			perPreemption, small, large, preS, preL)
	}
	t.Logf("allocs/run: %.0f (%d preemptions) → %.0f (%d preemptions), %.1f per extra preemption",
		small, preS, large, preL, perPreemption)
}

// sketchRankError measures how far outside the rank interval of answer
// the requested rank falls, in the exact sorted sample — 0 when the
// answer's tie run covers the rank.
func sketchRankError(sorted []float64, answer, wantRank float64) float64 {
	lo := float64(sort.SearchFloat64s(sorted, answer))
	hi := float64(sort.SearchFloat64s(sorted, math.Nextafter(answer, math.Inf(1))))
	switch {
	case wantRank < lo:
		return lo - wantRank
	case wantRank > hi:
		return wantRank - hi
	}
	return 0
}

// TestScaleModeMatchesExact runs the same trace on the exact path and in
// scale mode (ExactMetrics < 0) and pins the contract between them:
// order-independent aggregates identical, means within float tolerance,
// and every digest percentile within the sketch's documented rank-error
// bound of the exact distribution.
func TestScaleModeMatchesExact(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 17, 99} {
		cfg := Config{
			Model:      model.MustByName("opt-6.7b"),
			Profile:    memsim.V100_16G(),
			Scheduler:  "alisa",
			Trace:      workload.PoissonTrace(64, 4.0, seed),
			KVSparsity: 0.8,
			KVBits:     8,
			MaxBatch:   8,
		}
		exact, err := Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ExactMetrics = -1
		scale, err := Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}

		if scale.Requests != nil {
			t.Fatalf("seed %d: scale mode retained %d records", seed, len(scale.Requests))
		}
		if scale.Completed != exact.Completed || scale.Completed != len(exact.Requests) {
			t.Fatalf("seed %d: completed %d vs exact %d", seed, scale.Completed, exact.Completed)
		}
		if scale.Makespan != exact.Makespan || scale.Throughput != exact.Throughput ||
			scale.Goodput != exact.Goodput || scale.SLOAttainment != exact.SLOAttainment {
			t.Fatalf("seed %d: aggregate drift:\nexact %+v\nscale %+v", seed, exact, scale)
		}
		if scale.Preemptions != exact.Preemptions || scale.MeanBatch != exact.MeanBatch ||
			scale.PeakGPU != exact.PeakGPU || scale.PeakCPU != exact.PeakCPU {
			t.Fatalf("seed %d: simulation drift between modes", seed)
		}

		// Rebuild the exact latency distributions from the records and
		// hold each digest percentile to the sketch bound.
		n := len(exact.Requests)
		dists := map[string]struct {
			vals []float64
			sum  metrics.LatencySummary
		}{}
		ttft := make([]float64, 0, n)
		tpot := make([]float64, 0, n)
		e2e := make([]float64, 0, n)
		for _, r := range exact.Requests {
			ttft = append(ttft, r.TTFT())
			tpot = append(tpot, r.TPOT())
			e2e = append(e2e, r.Finished-r.Arrival)
		}
		dists["ttft"] = struct {
			vals []float64
			sum  metrics.LatencySummary
		}{ttft, scale.TTFT}
		dists["tpot"] = struct {
			vals []float64
			sum  metrics.LatencySummary
		}{tpot, scale.TPOT}
		dists["e2e"] = struct {
			vals []float64
			sum  metrics.LatencySummary
		}{e2e, scale.E2E}

		bound := 3 * float64(n) / 256
		if bound < 1 {
			bound = 1
		}
		for name, d := range dists {
			sorted := append([]float64(nil), d.vals...)
			sort.Float64s(sorted)
			exactMean := metrics.Mean(d.vals)
			if math.Abs(d.sum.Mean-exactMean) > 1e-9*math.Max(1, exactMean) {
				t.Errorf("seed %d %s: digest mean %v, exact %v", seed, name, d.sum.Mean, exactMean)
			}
			if d.sum.Max != sorted[n-1] {
				t.Errorf("seed %d %s: digest max %v, exact %v", seed, name, d.sum.Max, sorted[n-1])
			}
			for _, p := range []struct {
				pct float64
				got float64
			}{{50, d.sum.P50}, {95, d.sum.P95}, {99, d.sum.P99}} {
				wantRank := p.pct / 100 * float64(n-1)
				if derr := sketchRankError(sorted, p.got, wantRank); derr > bound {
					t.Errorf("seed %d %s p%v: %v misses rank %.1f by %.1f (bound %.1f)",
						seed, name, p.pct, p.got, wantRank, derr, bound)
				}
			}
		}
	}
}

// TestScaleModeDeterministic pins replay determinism across the
// mid-run exact→scale switch: the same streamed workload, crossing the
// threshold at the same injection, must finalize bit-identically.
func TestScaleModeDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := lightConfig("alisa")
		cfg.Trace = nil
		cfg.KVSparsity = 0.8
		cfg.KVBits = 8
		cfg.ExactMetrics = 8 // crossed mid-stream below
		l, err := NewLoop(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		tr := workload.PoissonTrace(24, 3.0, 5)
		for i, r := range tr {
			if err := l.Inject(r); err != nil {
				t.Fatal(err)
			}
			// Interleave work so completions exist on both sides of the
			// switch at injection 9.
			if i%4 == 3 {
				for j := 0; j < 6; j++ {
					if _, err := l.Advance(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := l.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		return l.Finalize()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scale-mode replay diverged:\na: %+v\nb: %+v", a, b)
	}
	if a.Requests != nil || a.Completed != 24 {
		t.Fatalf("expected scale-mode result over 24 requests, got %+v", a)
	}
}

// TestSwitchInsideCompletionCallback crosses the exact-metrics threshold
// from a Completion callback, as a closed-loop client issuing its
// next request does: the request completing at the switch must count
// once, not once as a kept record and again as a fresh completion.
func TestSwitchInsideCompletionCallback(t *testing.T) {
	const total = 12
	cfg := lightConfig("vllm")
	cfg.Trace = nil
	cfg.ExactMetrics = 4
	var l *Loop
	next, done := 0, 0
	inject := func() {
		if err := l.Inject(workload.Request{ID: next, Arrival: l.Clock(), Input: 32, Output: 4}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	cfg.Observer = events.Observer{Completion: func(events.Completion) {
		done++
		if next < total {
			inject()
		}
	}}
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inject()
	inject()
	res := drainResult(t, l)
	if done != total || res.Completed != total || res.Requests != nil {
		t.Fatalf("%d completion events, Result counts %d completed (records %v); want %d in scale mode",
			done, res.Completed, res.Requests, total)
	}
}

// TestScaleModeRetainsOnlyLiveRecords is the O(in-flight) record guard
// at the unit level: through a paced streaming run of many requests, the
// ID index must hold exactly the live requests after every turn, no
// completed record may be kept, and nothing may stay behind after the
// drain.
func TestScaleModeRetainsOnlyLiveRecords(t *testing.T) {
	cfg := Config{
		Model:        model.MustByName("opt-6.7b"),
		Profile:      memsim.V100_16G(),
		Scheduler:    "gpu-only",
		KVBits:       16,
		MaxBatch:     8,
		ExactMetrics: -1,
	}
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := &l.s
	checkLive := func() {
		t.Helper()
		if live := l.Pending() + l.Active(); len(s.ids) != live {
			t.Fatalf("ID index holds %d requests with %d live", len(s.ids), live)
		}
		if len(s.kept) != 0 {
			t.Fatalf("scale mode kept %d completed records", len(s.kept))
		}
	}
	const total = 4096
	const liveCap = 64
	next := 0
	for next < total {
		// Top the backlog up to liveCap, then advance until it drains
		// below half — the paced injection that keeps the run O(live).
		for next < total && l.Pending()+l.Active() < liveCap {
			if err := l.Inject(workload.Request{ID: next, Arrival: l.Clock(), Input: 32, Output: 4}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for l.Pending()+l.Active() > liveCap/2 {
			if _, err := l.Advance(ctx); err != nil {
				t.Fatal(err)
			}
			checkLive()
		}
	}
	if err := l.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	checkLive()
	if got := len(s.ids); got != 0 {
		t.Errorf("drained scale run still indexes %d requests", got)
	}
	if got := s.queue.Len(); got != 0 {
		t.Errorf("drained queue still holds %d requests", got)
	}

	res := l.Finalize()
	if res.Completed != total {
		t.Fatalf("completed %d of %d", res.Completed, total)
	}
	if res.Requests != nil {
		t.Fatalf("scale mode returned %d per-request records", len(res.Requests))
	}
	if res.TTFT.P50 <= 0 || res.E2E.P99 < res.E2E.P50 {
		t.Fatalf("degenerate digests: %+v", res)
	}
}

// TestExactThresholdDefaultCoversCurrentTraces pins the threshold
// contract: a default-config run far below DefaultExactMetrics stays on
// the exact path, bit-identical to an explicit huge threshold.
func TestExactThresholdDefaultCoversCurrentTraces(t *testing.T) {
	cfg := lightConfig("vllm")
	def, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if def.Requests == nil {
		t.Fatal("default threshold pushed a 6-request trace into scale mode")
	}
	cfg.ExactMetrics = 1 << 30
	huge, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, huge) {
		t.Fatal("default and explicit exact thresholds diverged")
	}
}
