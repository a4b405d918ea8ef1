package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The offline optimizer's closed-form cost prediction and the runtime
// simulation share the same cost helpers; the prediction must therefore
// track the measured decode time closely. This is the §V-A contract:
// parameters are chosen offline, "introducing no overhead during LLM
// inference" — which only works if the offline model is faithful.
func TestOptimizerPredictionTracksMeasurement(t *testing.T) {
	cases := []struct {
		model string
		prof  memsim.Profile
		batch int
		bits  int
		spars float64
	}{
		{"opt-30b", memsim.H100_80G(), 64, 16, 0.8},
		{"opt-6.7b", memsim.V100_16G(), 64, 8, 0.8},
		{"opt-13b", memsim.V100_32G(), 64, 8, 0.6},
	}
	for _, c := range cases {
		mc := model.MustByName(c.model)

		// Reproduce the engine's pre-run state for the optimizer.
		sys := memsim.NewSystem(c.prof)
		ctx := &sched.Context{
			Sys: sys, Cost: costmodel.New(c.prof), Model: mc,
			Batch: c.batch, Input: 128, Output: 512,
			CachingRatio: 1 - c.spars, KVBits: c.bits,
		}
		if err := sys.AllocGPU(c.prof.ReserveBytes); err != nil {
			t.Fatal(err)
		}
		if err := sys.AllocGPU(ctx.WeightBytes()); err != nil {
			t.Fatal(err)
		}
		if err := sys.AllocGPU(ctx.ActivationBytes()); err != nil {
			t.Fatal(err)
		}
		predicted := sched.Predict(ctx, sched.Optimize(ctx))

		res, err := Run(context.Background(), Config{
			Model: mc, Profile: c.prof, Scheduler: sched.MustByName("alisa"),
			Batch: c.batch, Input: 128, Output: 512,
			KVSparsity: c.spars, KVBits: c.bits,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		// The prediction covers decode only; compare against the measured
		// total minus prefill.
		decode := res.TotalSeconds - res.Breakdown.Get(trace.CatPrefill)
		rel := math.Abs(predicted-decode) / decode
		if rel > 0.3 {
			t.Errorf("%s: predicted %.2fs vs measured decode %.2fs (%.0f%% off)",
				c.model, predicted, decode, rel*100)
		}
	}
}

// Two identical engine runs must be byte-identical: the whole stack is
// deterministic (no wall clocks, no unseeded randomness).
func TestEngineDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(context.Background(), Config{
			Model:   model.MustByName("opt-6.7b"),
			Profile: memsim.V100_16G(),
			Batch:   32, Input: 128, Output: 128,
			KVSparsity: 0.8, KVBits: 8,
			Scheduler: sched.MustByName("alisa"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalSeconds != b.TotalSeconds || a.Throughput != b.Throughput {
		t.Fatalf("nondeterministic totals: %v vs %v", a.TotalSeconds, b.TotalSeconds)
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatalf("step %d differs: %+v vs %+v", i, a.Steps[i], b.Steps[i])
		}
	}
}

// Throughput accounting: tokens always equals batch × output, and
// throughput × time recovers it.
func TestThroughputConservation(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Model:   model.MustByName("opt-6.7b"),
		Profile: memsim.V100_16G(),
		Batch:   16, Input: 64, Output: 96,
		KVSparsity: 0.8, KVBits: 8,
		Scheduler: sched.MustByName("alisa"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != 16*96 {
		t.Fatalf("tokens = %d", res.Tokens)
	}
	if rec := res.Throughput * res.TotalSeconds; math.Abs(rec-float64(res.Tokens)) > 1e-6 {
		t.Fatalf("throughput × time = %v, want %d", rec, res.Tokens)
	}
}
