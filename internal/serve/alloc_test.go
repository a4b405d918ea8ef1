package serve

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/workload"
)

// seedAllocsPerRun is the measured allocation count of one Run of
// replayConfig("alisa") before the hot path was rebuilt (PR 3 code:
// per-iteration plan/attended slices, per-admission Context/seqState,
// unconditional Sprintf event log). The steady-state guard holds the
// rebuilt loop ≥ 5× below it; see EXPERIMENTS.md for the trajectory.
const seedAllocsPerRun = 5647

// TestServeSteadyStateAllocs is the allocs/op regression guard of the
// acceptance criterion: with no observer attached, a full pressured run
// must allocate at least 5× less than the pre-rebuild loop did.
func TestServeSteadyStateAllocs(t *testing.T) {
	cfg := replayConfig("alisa")
	ctx := context.Background()
	if _, err := Run(ctx, cfg); err != nil { // warm build caches before measuring
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(seedAllocsPerRun) / 5; allocs > limit {
		t.Errorf("serve.Run allocates %.0f per run, want ≤ %.0f (≥5× below the %d-alloc seed loop)",
			allocs, limit, seedAllocsPerRun)
	}
	t.Logf("allocs/run: %.0f (seed loop: %d)", allocs, seedAllocsPerRun)
}

// TestServeIterationAllocsFlat pins the "allocation-free steady state"
// property directly: growing a uniform workload's output length — pure
// extra decode iterations, identical admission/completion structure —
// must not grow allocations beyond the scheduler's own per-step
// bookkeeping. gpu-only plans steps without allocating, so the loop's
// marginal cost per iteration must be zero.
func TestServeIterationAllocsFlat(t *testing.T) {
	run := func(output int) float64 {
		cfg := Config{
			Model:     model.MustByName("opt-6.7b"),
			Profile:   memsim.V100_16G(),
			Scheduler: "gpu-only",
			Trace:     workload.UniformTrace(4, 0, 64, output),
			KVBits:    16,
			MaxBatch:  4,
		}
		ctx := context.Background()
		if _, err := Run(ctx, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(ctx, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(32), run(256)
	// 224 extra iterations; allow a little noise, not per-iteration cost.
	if long > short+8 {
		t.Errorf("allocations grew with iteration count: %v at 32 output tokens, %v at 256", short, long)
	}
}

// TestServeAdmissionAllocsZero is the zero-allocation admission guard:
// past warm-up, a paced scale-mode stream admits, serves and retires
// requests without allocating under the three placement shapes — a
// static split, ALISA's token store and vLLM's block store. The pooled
// sequence state keeps its scheduler, and Init resets the scheduler's
// store in place; a scheduler built per admission costs at least one
// allocation per request.
func TestServeAdmissionAllocsZero(t *testing.T) {
	for _, tc := range []struct {
		sched    string
		sparsity float64
		bits     int
	}{
		{"gpu-only", 0, 16},
		{"alisa", 0.8, 8},
		{"vllm", 0, 16},
	} {
		t.Run(tc.sched, func(t *testing.T) {
			l, err := NewLoop(Config{
				Model:        model.MustByName("opt-6.7b"),
				Profile:      memsim.V100_32G(),
				Scheduler:    tc.sched,
				KVSparsity:   tc.sparsity,
				KVBits:       tc.bits,
				MaxBatch:     16,
				ExactMetrics: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			const liveCap, warm, total = 256, 4096, 4096 + 16384
			runPacedStream(t, l, 0, warm, liveCap)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			runPacedStream(t, l, warm, total, liveCap)
			runtime.ReadMemStats(&m1)
			perReq := float64(m1.Mallocs-m0.Mallocs) / float64(total-warm)
			t.Logf("%.4f allocations per request over %d requests", perReq, total-warm)
			if perReq >= 0.01 {
				t.Errorf("%s: %.4f heap allocations per request past warm-up, want < 0.01", tc.sched, perReq)
			}
			if err := l.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestObserverMetricsBitIdentical is the observer-invariance property of
// the determinism contract — instrumentation may observe simulated
// results but never change them: for every registered servable scheduler
// and several workloads, a run with a recording observer attached returns
// a Result bit-identical to the run without one.
func TestObserverMetricsBitIdentical(t *testing.T) {
	traces := []workload.Trace{
		workload.PoissonTrace(16, 2.5, 7),
		workload.PoissonTrace(12, 5.0, 21),
		workload.UniformTrace(6, 0.25, 96, 48),
		// Long dense sequences that overflow the GPU: the preemption path.
		workload.UniformTrace(4, 0.05, 1024, 512),
	}
	for _, name := range sched.Registered() {
		if name == "deepspeed-zero" || name == "deepspeed" {
			continue // not servable: engine-wide weight streaming
		}
		t.Run(name, func(t *testing.T) {
			for ti, tr := range traces {
				cfg := Config{
					Model:     model.MustByName("opt-6.7b"),
					Profile:   memsim.V100_16G(),
					Scheduler: name,
					Trace:     tr,
					KVBits:    16,
					MaxBatch:  6,
				}
				if name == "alisa" {
					cfg.KVSparsity = 0.8
					cfg.KVBits = 8
				}
				observed, stream := recordedRun(t, cfg)
				if len(stream) == 0 {
					t.Fatalf("trace %d: observer recorded no events", ti)
				}
				plain, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("trace %d without observer: %v", ti, err)
				}
				if !reflect.DeepEqual(observed, plain) {
					t.Fatalf("trace %d: results diverged with and without an observer:\nobserved: %+v\nplain:    %+v", ti, observed, plain)
				}
			}
		})
	}
}
