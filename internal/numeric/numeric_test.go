package numeric

import (
	"math"
	"testing"

	"repro/internal/attention"
	"repro/internal/model"
)

// compare runs Compare and fails the test on an error.
func compare(t *testing.T, cfg Config, cases ...Case) []Report {
	t.Helper()
	reps, err := Compare(cfg, cases...)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(cases) {
		t.Fatalf("%d reports for %d cases", len(reps), len(cases))
	}
	return reps
}

func TestDenseSelfComparisonIsExact(t *testing.T) {
	rep := compare(t, Config{ModelSeed: 1, DataSeed: 2, Tokens: 32}, Case{})[0]
	if rep.TopAgreement != 1 {
		t.Fatalf("dense vs dense agreement = %v, want 1", rep.TopAgreement)
	}
	if math.Abs(rep.LogitCosine-1) > 1e-6 {
		t.Fatalf("dense vs dense cosine = %v, want 1", rep.LogitCosine)
	}
	if rep.MeanNLL != rep.DenseNLL {
		t.Fatalf("dense NLL mismatch: %v vs %v", rep.MeanNLL, rep.DenseNLL)
	}
}

func TestSWATracksDenseOnLiveTensors(t *testing.T) {
	cfg := model.SmallConfig()
	reps := compare(t, Config{ModelSeed: 1, DataSeed: 2, Tokens: 96},
		Case{Policy: attention.MustByName("swa", 0.4, cfg.Layers)},
		Case{Policy: attention.MustByName("local", 0.4, cfg.Layers)})
	swa, local := reps[0], reps[1]
	// The oracle-level ordering must hold on real softmax attention too.
	if swa.LogitCosine <= local.LogitCosine {
		t.Fatalf("SWA cosine %.4f should beat local %.4f", swa.LogitCosine, local.LogitCosine)
	}
	if swa.TopAgreement <= local.TopAgreement {
		t.Fatalf("SWA agreement %.3f should beat local %.3f", swa.TopAgreement, local.TopAgreement)
	}
	if swa.LogitCosine < 0.85 {
		t.Fatalf("SWA at 60%% sparsity should stay close to dense: cosine %.4f", swa.LogitCosine)
	}
}

func TestSWAFullRatioMatchesDense(t *testing.T) {
	cfg := model.SmallConfig()
	rep := compare(t, Config{ModelSeed: 3, DataSeed: 4, Tokens: 48},
		Case{Policy: attention.MustByName("swa", 1.0, cfg.Layers)})[0]
	// Ratio 1.0 may drop one token on odd steps (k-clamping), so demand
	// near-identity rather than exactness.
	if rep.LogitCosine < 0.995 {
		t.Fatalf("SWA at ratio 1.0 cosine = %v, want ≈1", rep.LogitCosine)
	}
	if rep.TopAgreement < 0.95 {
		t.Fatalf("SWA at ratio 1.0 agreement = %v, want ≈1", rep.TopAgreement)
	}
}

func TestINT8QuantizationNearlyFree(t *testing.T) {
	// Fig. 8's compression finding on live tensors: INT8 KV storage
	// barely moves the logits.
	reps := compare(t, Config{ModelSeed: 5, DataSeed: 6, Tokens: 64}, Case{}, Case{KVBits: 8})
	plain, int8 := reps[0], reps[1]
	if int8.LogitCosine < 0.99 {
		t.Fatalf("INT8 KV cosine vs dense = %.4f, want ≥0.99", int8.LogitCosine)
	}
	if int8.TopAgreement < 0.9 {
		t.Fatalf("INT8 KV agreement = %.3f, want ≥0.9", int8.TopAgreement)
	}
	nllShift := math.Abs(int8.MeanNLL - plain.MeanNLL)
	if nllShift > 0.1 {
		t.Fatalf("INT8 NLL shift %.4f too large", nllShift)
	}
}

func TestINT4NoisierThanINT8(t *testing.T) {
	reps := compare(t, Config{ModelSeed: 7, DataSeed: 8, Tokens: 64}, Case{KVBits: 8}, Case{KVBits: 4})
	int8, int4 := reps[0], reps[1]
	if int4.LogitCosine > int8.LogitCosine {
		t.Fatalf("INT4 cosine %.4f should not beat INT8 %.4f", int4.LogitCosine, int8.LogitCosine)
	}
}

func TestAlisaStackOnLiveTensors(t *testing.T) {
	// The full ALISA algorithm stack (SWA + INT8 KV) stays close to the
	// pure SWA run — the compression is accuracy-neutral on top of
	// sparsity, numerically.
	cfg := model.SmallConfig()
	reps := compare(t, Config{ModelSeed: 9, DataSeed: 10, Tokens: 96},
		Case{Policy: attention.MustByName("swa", 0.4, cfg.Layers)},
		Case{Policy: attention.MustByName("swa", 0.4, cfg.Layers), KVBits: 8})
	swa, alisa := reps[0], reps[1]
	if math.Abs(alisa.MeanNLL-swa.MeanNLL) > 0.15 {
		t.Fatalf("ALISA NLL %.4f should track SWA %.4f", alisa.MeanNLL, swa.MeanNLL)
	}
}

// Each case's report equals the report of a comparison of that case
// alone: decoding the reference once shares nothing between cases. The
// dense float32 case, which reuses the reference's logits, reports an
// exact match with it wherever it stands.
func TestCasesIndependent(t *testing.T) {
	cfg := model.SmallConfig()
	stream := Config{ModelSeed: 15, DataSeed: 16, Tokens: 40}
	cases := func() []Case {
		return []Case{
			{Policy: attention.MustByName("swa", 0.5, cfg.Layers), KVBits: 4},
			{KVBits: 16},
			{},
			{Policy: attention.MustByName("local", 0.5, cfg.Layers)},
		}
	}
	together := compare(t, stream, cases()...)
	for i, c := range cases() {
		if alone := compare(t, stream, c)[0]; alone != together[i] {
			t.Fatalf("case %d: alone %+v, among others %+v", i, alone, together[i])
		}
	}
	if d := together[2]; d.LogitCosine != 1 || d.TopAgreement != 1 || d.MeanNLL != d.DenseNLL {
		t.Fatalf("dense case: cosine %v, agreement %v, NLL %v against %v; want 1, 1 and equal NLLs",
			d.LogitCosine, d.TopAgreement, d.MeanNLL, d.DenseNLL)
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(Config{Tokens: 4}, Case{}); err == nil {
		t.Fatal("expected error for short stream")
	}
	if _, err := Compare(Config{Tokens: 32}, Case{}, Case{KVBits: 3}); err == nil {
		t.Fatal("expected error for bad KV bits")
	}
	if _, err := Compare(Config{Tokens: 10000}, Case{}); err == nil {
		t.Fatal("expected error for over-long stream")
	}
}

func TestNLLIsProperLoss(t *testing.T) {
	logits := []float32{0, 0, 10}
	if nll(logits, 2) > 0.01 {
		t.Fatalf("confident correct prediction should have tiny NLL: %v", nll(logits, 2))
	}
	if nll(logits, 0) < 5 {
		t.Fatalf("confident wrong prediction should have large NLL: %v", nll(logits, 0))
	}
}

func TestFP16StorageNearlyExact(t *testing.T) {
	// FP16 KV storage (what the paper's systems hold before compression)
	// is effectively lossless at these magnitudes.
	reps := compare(t, Config{ModelSeed: 13, DataSeed: 14, Tokens: 64}, Case{}, Case{KVBits: 16}, Case{KVBits: 8})
	fp32, fp16, int8 := reps[0], reps[1], reps[2]
	if fp16.LogitCosine < 0.9999 {
		t.Fatalf("FP16 KV cosine = %v, want ≈1", fp16.LogitCosine)
	}
	if math.Abs(fp16.MeanNLL-fp32.MeanNLL) > 0.01 {
		t.Fatalf("FP16 NLL shift %v too large", math.Abs(fp16.MeanNLL-fp32.MeanNLL))
	}
	// Precision ladder: fp16 ≥ int8 ≥ int4 fidelity.
	if int8.LogitCosine > fp16.LogitCosine+1e-9 {
		t.Fatal("INT8 should not beat FP16 fidelity")
	}
}
