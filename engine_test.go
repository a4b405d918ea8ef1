package alisa

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestNewValidation walks every invalid option field and asserts the
// compile step rejects it with a ConfigError naming that field.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		model string
		opts  []Option
		field string
	}{
		{"unknown model", "gpt-5", nil, "Model"},
		{"empty profile", "opt-6.7b", []Option{WithProfile("")}, "Profile"},
		{"unknown profile", "opt-6.7b", []Option{WithProfile("TPU")}, "Profile"},
		{"empty scheduler", "opt-6.7b", []Option{WithScheduler("")}, "Scheduler"},
		{"unknown scheduler", "opt-6.7b", []Option{WithScheduler("magic")}, "Scheduler"},
		{"negative sparsity", "opt-6.7b", []Option{WithKVSparsity(-0.1)}, "KVSparsity"},
		{"dense-exclusive sparsity", "opt-6.7b", []Option{WithKVSparsity(1.0)}, "KVSparsity"},
		{"zero bits", "opt-6.7b", []Option{WithKVBits(0)}, "KVBits"},
		{"int4 bits", "opt-6.7b", []Option{WithKVBits(4)}, "KVBits"},
		{"odd bits", "opt-6.7b", []Option{WithKVBits(7)}, "KVBits"},
		{"zero max batch", "opt-6.7b", []Option{WithMaxBatch(0)}, "MaxBatch"},
		{"negative max batch", "opt-6.7b", []Option{WithMaxBatch(-3)}, "MaxBatch"},
		{"zero TTFT SLO", "opt-6.7b", []Option{WithSLO(0, 0.5)}, "SLOTTFT"},
		{"negative TPOT SLO", "opt-6.7b", []Option{WithSLO(10, -1)}, "SLOTPOT"},
		{"nil option", "opt-6.7b", []Option{nil}, "Option"},
	}
	// An unknown name's error ends by listing the names the table knows.
	known := map[string]string{
		"unknown model":     "(known: llama-13b, llama-33b, llama-7b, opt-13b, opt-30b, opt-6.7b, pythia-12b, pythia-6.9b)",
		"unknown profile":   "(known: H100-80GB, V100-16GB, V100-32GB)",
		"unknown scheduler": "(known: accelerate, alisa, deepspeed, deepspeed-zero, flexgen, gpu-only, hf-accelerate, no-cache, vllm)",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.model, tc.opts...)
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("Field = %q, want %q (err: %v)", ce.Field, tc.field, err)
			}
			if !strings.HasSuffix(err.Error(), known[tc.name]) {
				t.Fatalf("err %q does not end with %q", err, known[tc.name])
			}
		})
	}
}

// TestRunValidation covers the per-call inputs: workload shape, serving
// trace, and evaluation steps.
func TestRunValidation(t *testing.T) {
	eng, err := New("opt-6.7b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	shapes := []struct {
		shape Shape
		field string
	}{
		{Shape{Batch: 0, Input: 8, Output: 8}, "Batch"},
		{Shape{Batch: 1, Input: 0, Output: 8}, "Input"},
		{Shape{Batch: 1, Input: 8, Output: -1}, "Output"},
	}
	for _, tc := range shapes {
		_, err := eng.Simulate(ctx, tc.shape)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("Simulate(%+v): err = %v, want ConfigError on %s", tc.shape, err, tc.field)
		}
	}

	var ce *ConfigError
	if _, err := eng.Serve(ctx, nil); !errors.As(err, &ce) || ce.Field != "Trace" {
		t.Errorf("Serve(nil trace): err = %v, want ConfigError on Trace", err)
	}
	if _, err := eng.Serve(ctx, TraceWorkload{}); !errors.As(err, &ce) || ce.Field != "Trace" {
		t.Errorf("Serve(empty trace): err = %v, want ConfigError on Trace", err)
	}
	if _, err := eng.EvaluatePolicy(ctx, "swa", 0); !errors.As(err, &ce) || ce.Field != "Steps" {
		t.Errorf("EvaluatePolicy(steps=0): err = %v, want ConfigError on Steps", err)
	}
	if _, err := eng.EvaluatePolicy(ctx, "magic", 8); !errors.As(err, &ce) || ce.Field != "Policy" {
		t.Errorf("EvaluatePolicy(magic): err = %v, want ConfigError on Policy", err)
	}
}

func TestEngineAccessors(t *testing.T) {
	eng, err := New("opt-13b", WithScheduler("flexgen"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Model() != "opt-13b" || eng.Profile() != "V100-32GB" || eng.Scheduler() != "flexgen" {
		t.Fatalf("accessors = %s/%s/%s", eng.Model(), eng.Profile(), eng.Scheduler())
	}
}

// TestEngineReuse pins the compiled engine's reusability: repeated runs
// of the same shape are bit-identical (scheduler state is per-run).
func TestEngineReuse(t *testing.T) {
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	shape := Shape{Batch: 8, Input: 64, Output: 64}
	first, err := eng.Simulate(ctx, shape)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Simulate(ctx, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeated Simulate on one engine diverged")
	}

	trace := PoissonTrace(8, 3, 5)
	sa, err := eng.Serve(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := eng.Serve(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("repeated Serve on one engine diverged")
	}
}

// TestSimulateCancellation cancels mid-run from an observer callback and
// expects the partial result alongside ctx.Err().
func TestSimulateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5
	eng, err := New("opt-6.7b",
		WithScheduler("gpu-only"),
		WithObserver(Observer{Step: func(e StepEvent) {
			if e.Step == cancelAt {
				cancel()
			}
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(ctx, Shape{Batch: 2, Input: 32, Output: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled Simulate returned no partial result")
	}
	if len(res.Steps) != cancelAt+1 {
		t.Fatalf("partial result has %d steps, want %d", len(res.Steps), cancelAt+1)
	}
	if res.TotalSeconds <= 0 {
		t.Fatalf("partial result carries no measured time: %v", res.TotalSeconds)
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("res.Err = %v, want context.Canceled", res.Err)
	}
}

// TestServeCancellation cancels after the third completion and expects a
// partial Result summarising only the finished requests. Getting
// ctx.Err() back (not a leak error) proves the cancelled run released
// every in-flight allocation: the end-of-run leak check runs on the
// cancellation path too.
func TestServeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, cancelAfter = 16, 3
	done := 0
	eng, err := New("opt-6.7b",
		WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(4),
		WithObserver(Observer{Completion: func(e CompletionEvent) {
			done++
			if done == cancelAfter {
				cancel()
			}
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Serve(ctx, PoissonTrace(n, 4, 7))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled Serve returned no partial result")
	}
	if len(res.Requests) < cancelAfter || len(res.Requests) >= n {
		t.Fatalf("partial result has %d finished requests, want in [%d, %d)", len(res.Requests), cancelAfter, n)
	}
	for _, r := range res.Requests {
		if r.Finished <= 0 {
			t.Fatalf("partial result includes unfinished request %+v", r)
		}
	}
	if res.TTFT.P50 <= 0 {
		t.Fatalf("partial metrics empty: %+v", res.TTFT)
	}
}

func TestEvaluatePolicyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := New("opt-6.7b", WithKVSparsity(0.8))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.EvaluatePolicy(ctx, "swa", 128)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatalf("cancelled evaluation returned a report: %+v", rep)
	}
}

// TestObserverEventStream pins the observer's event accounting on both
// run methods.
func TestObserverEventStream(t *testing.T) {
	var steps, admits, completes, preempts int
	obs := Observer{
		Step:       func(StepEvent) { steps++ },
		Admission:  func(AdmissionEvent) { admits++ },
		Preemption: func(PreemptionEvent) { preempts++ },
		Completion: func(CompletionEvent) { completes++ },
	}
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const output = 48
	if _, err := eng.Simulate(ctx, Shape{Batch: 4, Input: 32, Output: output}); err != nil {
		t.Fatal(err)
	}
	if steps != output {
		t.Fatalf("Simulate emitted %d step events, want %d", steps, output)
	}

	steps = 0
	const n = 10
	res, err := eng.Serve(ctx, PoissonTrace(n, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if completes != n {
		t.Fatalf("Serve emitted %d completions, want %d", completes, n)
	}
	if admits != n+preempts {
		t.Fatalf("Serve emitted %d admissions, want %d arrivals + %d preemptions", admits, n, preempts)
	}
	if preempts != res.Preemptions {
		t.Fatalf("observer saw %d preemptions, result reports %d", preempts, res.Preemptions)
	}
	if steps <= 0 {
		t.Fatal("Serve emitted no step events")
	}
}
