package alisa

import (
	"context"
	"strings"
	"testing"
)

func TestSimulateHeadline(t *testing.T) {
	eng, err := New("opt-6.7b", WithScheduler("alisa"), WithKVSparsity(0.8), WithKVBits(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(context.Background(), Shape{Batch: 16, Input: 128, Output: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %v", res.Throughput)
	}
}

func TestSimulateExplicitProfile(t *testing.T) {
	eng, err := New("opt-6.7b",
		WithProfile("H100-80GB"), WithScheduler("gpu-only"), WithKVSparsity(0), WithKVBits(16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Simulate(context.Background(), Shape{Batch: 8, Input: 64, Output: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("8×128 tokens must fit an H100")
	}
}

func TestSimulateErrors(t *testing.T) {
	configs := []struct {
		model string
		opts  []Option
	}{
		{"gpt-5", []Option{WithScheduler("alisa")}},
		{"opt-6.7b", []Option{WithScheduler("magic")}},
		{"opt-6.7b", []Option{WithProfile("TPU"), WithScheduler("alisa")}},
	}
	for i, c := range configs {
		if _, err := New(c.model, append(c.opts, WithKVBits(16))...); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	eng, err := New("opt-6.7b", WithScheduler("alisa"), WithKVBits(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Simulate(context.Background(), Shape{Batch: 0, Input: 1, Output: 1}); err == nil {
		t.Error("zero batch: expected error")
	}
}

// TestNewPolicyNames checks that every built-in policy name resolves at
// caching ratio 0.5 (KV sparsity 0.5) and that an unknown one does not.
func TestNewPolicyNames(t *testing.T) {
	eng, err := New("opt-6.7b", WithKVSparsity(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"dense", "local", "strided", "swa", "h2o"} {
		rep, err := eng.EvaluatePolicy(ctx, name, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Policy != name {
			t.Fatalf("Policy = %q, want %q", rep.Policy, name)
		}
	}
	_, err = eng.EvaluatePolicy(ctx, "oracle", 2)
	if err == nil || !strings.HasSuffix(err.Error(), "(known: dense, h2o, local, strided, swa)") {
		t.Fatalf("unknown policy: err %v, want the known policies listed", err)
	}
}

func TestEvaluatePolicyOrdering(t *testing.T) {
	ctx := context.Background()
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	swa, err := eng.EvaluatePolicy(ctx, "swa", 256)
	if err != nil {
		t.Fatal(err)
	}
	local, err := eng.EvaluatePolicy(ctx, "local", 256)
	if err != nil {
		t.Fatal(err)
	}
	if swa.MeanRecall <= local.MeanRecall {
		t.Fatalf("SWA recall %.3f should beat local %.3f", swa.MeanRecall, local.MeanRecall)
	}
	if swa.Spearman <= local.Spearman {
		t.Fatalf("SWA ρ %.3f should beat local %.3f", swa.Spearman, local.Spearman)
	}
	denseEng, err := New("opt-6.7b", WithKVSparsity(0), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := denseEng.EvaluatePolicy(ctx, "dense", 64)
	if err != nil {
		t.Fatal(err)
	}
	// The dense reference is the identity by definition: ρ ≡ 1 exactly,
	// not approximately (see PolicyReport.Spearman).
	if dense.MeanRecall != 1 || dense.Spearman != 1 {
		t.Fatalf("dense should be the identity reference: %+v", dense)
	}
}

func TestEvaluatePolicyErrors(t *testing.T) {
	if _, err := New("gpt-5", WithKVSparsity(0.8), WithSeed(1)); err == nil {
		t.Fatal("expected model error")
	}
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.EvaluatePolicy(ctx, "magic", 16); err == nil {
		t.Fatal("expected policy error")
	}
	if _, err := eng.EvaluatePolicy(ctx, "swa", 0); err == nil {
		t.Fatal("expected steps error")
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments()) < 13 {
		t.Fatalf("expected ≥13 experiments, got %d", len(Experiments()))
	}
	out, err := RunExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ALISA") {
		t.Fatalf("table1 render missing content:\n%s", out)
	}
	if _, err := RunExperiment("fig99"); err == nil || !strings.HasSuffix(err.Error(), ", fig9, numeric, table1)") {
		t.Fatalf("unknown experiment: err %v, want the known ids listed", err)
	}
}

func TestCatalogs(t *testing.T) {
	if len(Models()) != 8 {
		t.Fatalf("models = %v", Models())
	}
	if len(Schedulers()) != 5 {
		t.Fatalf("schedulers = %v", Schedulers())
	}
}

func TestServePublicAPI(t *testing.T) {
	eng, err := New("opt-6.7b",
		WithScheduler("alisa"), WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Serve(context.Background(), PoissonTrace(12, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 12 {
		t.Fatalf("completed %d of 12 requests", len(res.Requests))
	}
	if res.Goodput <= 0 || res.Throughput <= 0 {
		t.Fatalf("goodput %v / throughput %v not positive", res.Goodput, res.Throughput)
	}
	if res.TTFT.P99 <= 0 || res.TPOT.P50 <= 0 {
		t.Fatalf("latency summaries empty: TTFT %+v TPOT %+v", res.TTFT, res.TPOT)
	}
}

func TestServePublicAPIErrors(t *testing.T) {
	if _, err := New("nope", WithScheduler("alisa"), WithKVBits(16)); err == nil || !strings.HasSuffix(err.Error(), ", pythia-12b, pythia-6.9b)") {
		t.Errorf("unknown model: err %v, want the known models listed", err)
	}
	eng, err := New("opt-6.7b", WithScheduler("deepspeed-zero"), WithKVBits(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Serve(context.Background(), UniformTrace(1, 0, 8, 8)); err == nil {
		t.Error("deepspeed-zero accepted as serving policy")
	}
}
