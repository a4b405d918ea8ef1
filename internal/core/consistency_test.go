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

// The offline optimizer ranks its candidates by Predict, a dry run of the
// scheduler charged as the engine charges it, so the prediction for the
// parameters it picks is the decode time the run then measures, up to
// the rounding of the clock's different starting point. This is the §V-A
// contract: parameters are chosen offline, "introducing no overhead
// during LLM inference" — which only works if the offline model is
// faithful. The cells are dense through 80% sparsity on three testbeds.
func TestOptimizerPredictionTracksMeasurement(t *testing.T) {
	configs := []struct {
		model string
		prof  memsim.Profile
		bits  int
	}{
		{"opt-13b", memsim.V100_32G(), 8},
		{"opt-6.7b", memsim.V100_16G(), 8},
		{"opt-30b", memsim.H100_80G(), 16},
	}
	const batch, input, output = 64, 128, 512
	for _, c := range configs {
		mc := model.MustByName(c.model)
		for _, spars := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			// Reproduce the engine's pre-run state for the optimizer.
			ctx := &sched.Context{
				Sys: memsim.NewSystem(c.prof), Cost: costmodel.New(c.prof), Model: mc,
				Batch: batch, Input: input, Output: output,
				CachingRatio: 1 - spars, KVBits: c.bits,
			}
			if err := ctx.ReserveStatic(false); err != nil {
				t.Fatal(err)
			}
			p := sched.Optimize(ctx)
			predicted := sched.Predict(ctx, p)

			res, err := Run(context.Background(), Config{
				Model: mc, Profile: c.prof, Scheduler: sched.MustByName("alisa"),
				Batch: batch, Input: input, Output: output,
				KVSparsity: spars, KVBits: c.bits,
			})
			if err != nil {
				t.Fatalf("%s %.0f%%: %v", c.model, spars*100, err)
			}
			// The prediction covers everything after prefill: the KV
			// placement in Init and every decode step.
			decode := res.TotalSeconds - res.Breakdown.Get(trace.CatPrefill)
			t.Logf("%s %s %d-bit KV %.0f%%: β %.1f p2 %d, predicted %.2fs, measured decode %.2fs, ratio %.4f",
				c.model, c.prof.Name, c.bits, spars*100, p.Beta, p.P2, predicted, decode, predicted/decode)
			if rel := math.Abs(predicted-decode) / decode; rel > 1e-9 {
				t.Errorf("%s %.0f%%: predicted %.6fs vs measured decode %.6fs (%.3g relative)",
					c.model, spars*100, predicted, decode, rel)
			}
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
