package serve

import (
	"context"
	"testing"

	"repro/internal/events"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// BenchmarkServe measures one full pressured serving run — the unit of a
// sweep cell.
func BenchmarkServe(b *testing.B) {
	cfg := replayConfig("alisa")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterate isolates the steady-state decode loop: a uniform
// batch that admits once and then runs pure decode iterations. The
// iters/op metric says how many iterations one op spans, so
// allocs/op ÷ iters/op is the marginal allocation cost per iteration
// (zero for the loop itself; see TestServeIterationAllocsFlat).
func BenchmarkIterate(b *testing.B) {
	cfg := Config{
		Model:     model.MustByName("opt-6.7b"),
		Profile:   memsim.V100_16G(),
		Scheduler: "gpu-only",
		Trace:     workload.UniformTrace(4, 0, 128, 512),
		KVBits:    16,
		MaxBatch:  4,
	}
	ctx := context.Background()

	// Count the iterations one run performs (outside the timed region).
	iters := 0
	counted := cfg
	counted.Observer = events.Observer{Step: func(events.Step) { iters++ }}
	if _, err := Run(ctx, counted); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(iters), "iters/op")
}
