package oracle

import (
	"math"
	"testing"

	"repro/internal/attention"
	"repro/internal/model"
)

// policiesUnderTest builds one fresh instance of every shipped policy at
// the given caching ratio; fresh instances matter because policies are
// stateful and each Evaluate run must start cold.
func policiesUnderTest(ratio float64, layers int) []attention.Policy {
	return []attention.Policy{
		attention.MustByName("dense", ratio, layers),
		attention.MustByName("local", ratio, layers),
		attention.MustByName("strided", ratio, layers),
		attention.MustByName("swa", ratio, layers),
		attention.MustByName("h2o", ratio, layers),
	}
}

func resultsIdentical(a, b *Result) (string, bool) {
	if a.PolicyName != b.PolicyName || a.Steps != b.Steps {
		return "header", false
	}
	if a.MeanRecall != b.MeanRecall {
		return "MeanRecall", false
	}
	pairs := []struct {
		name string
		x, y []float64
	}{
		{"RecallPerStep", a.RecallPerStep, b.RecallPerStep},
		{"DenseSparsityPerStep", a.DenseSparsityPerStep, b.DenseSparsityPerStep},
		{"MaskedSparsityPerStep", a.MaskedSparsityPerStep, b.MaskedSparsityPerStep},
		{"AvgScore", a.AvgScore, b.AvgScore},
		{"DenseAvgScore", a.DenseAvgScore, b.DenseAvgScore},
	}
	for _, p := range pairs {
		if len(p.x) != len(p.y) {
			return p.name, false
		}
		for i := range p.x {
			if p.x[i] != p.y[i] {
				return p.name, false
			}
		}
	}
	return "", true
}

// TestEvaluateMatchesSequentialReference is the determinism regression for
// the parallel scratch-reusing hot path: across seeds, specs, and every
// shipped policy, Evaluate must reproduce the retained sequential
// reference bit for bit — same random streams, same masking, same merge
// order, no cross-goroutine interference.
func TestEvaluateMatchesSequentialReference(t *testing.T) {
	const steps = 96
	specs := []Spec{
		DefaultSpec(4, 1),
		DefaultSpec(3, 99),
		SpecForModel(model.MustByName("opt-6.7b"), 17),
		SpecForModel(model.MustByName("opt-30b"), 23),
	}
	for _, spec := range specs {
		spec.Layers = 4
		for _, ratio := range []float64{0.2, 0.5} {
			seqPols := policiesUnderTest(ratio, spec.Layers)
			parPols := policiesUnderTest(ratio, spec.Layers)
			for i := range seqPols {
				want := EvaluateSequential(spec, seqPols[i], steps)
				got := Evaluate(spec, parPols[i], steps)
				if field, ok := resultsIdentical(got, want); !ok {
					t.Errorf("seed %d ratio %.1f policy %s: parallel result diverges from sequential reference in %s",
						spec.Seed, ratio, want.PolicyName, field)
				}
			}
		}
	}
}

// TestEvaluateManyMatchesSingle pins EvaluateAll, which evaluates every
// policy against one shared process, to each policy's own Evaluate on a
// fresh instance, every Result field bit for bit: on fresh policies and on
// policies that last evaluated another spec for another length, which the
// first step's Select(l, 0) restarts. The singles run in reverse order,
// so no state may pass from one call to the next.
func TestEvaluateManyMatchesSingle(t *testing.T) {
	const steps = 96
	spec := SpecForModel(model.MustByName("opt-13b"), 55)
	spec.Layers = 4
	other := SpecForModel(model.MustByName("opt-30b"), 3)
	other.Layers = 4
	for _, ratio := range []float64{0.2, 0.6} {
		fresh := EvaluateAll(spec, policiesUnderTest(ratio, spec.Layers), steps)
		used := policiesUnderTest(ratio, spec.Layers)
		EvaluateAll(other, used, 2*steps)
		reused := EvaluateAll(spec, used, steps)
		singles := policiesUnderTest(ratio, spec.Layers)
		for i := len(singles) - 1; i >= 0; i-- {
			want := Evaluate(spec, singles[i], steps)
			if field, ok := resultsIdentical(fresh[i], want); !ok {
				t.Errorf("ratio %.1f policy %s: EvaluateAll diverges from a single Evaluate in %s",
					ratio, want.PolicyName, field)
			}
			if field, ok := resultsIdentical(reused[i], want); !ok {
				t.Errorf("ratio %.1f policy %s: EvaluateAll on reused policies diverges from a single Evaluate in %s",
					ratio, want.PolicyName, field)
			}
		}
	}
}

// TestMeanRecallsMatchesEvaluate pins the recall-only path, which
// evaluates every policy against one shared process, to each policy's own
// Evaluate MeanRecall bit for bit, on fresh policies and on policies that
// last evaluated another spec for another length: the first step's
// Select(l, 0) restarts them.
func TestMeanRecallsMatchesEvaluate(t *testing.T) {
	const steps = 96
	spec := SpecForModel(model.MustByName("opt-13b"), 55)
	spec.Layers = 4
	other := SpecForModel(model.MustByName("opt-30b"), 3)
	other.Layers = 4
	for _, ratio := range []float64{0.2, 0.6} {
		var want []*Result
		for _, pol := range policiesUnderTest(ratio, spec.Layers) {
			want = append(want, Evaluate(spec, pol, steps))
		}
		fresh := MeanRecalls(spec, policiesUnderTest(ratio, spec.Layers), steps)
		used := policiesUnderTest(ratio, spec.Layers)
		MeanRecalls(other, used, 2*steps)
		reused := MeanRecalls(spec, used, steps)
		for i, res := range want {
			if fresh[i] != res.MeanRecall {
				t.Errorf("ratio %.1f policy %s: MeanRecalls %v, Evaluate %v", ratio, res.PolicyName, fresh[i], res.MeanRecall)
			}
			if reused[i] != res.MeanRecall {
				t.Errorf("ratio %.1f policy %s: MeanRecalls on reused policies %v, Evaluate %v", ratio, res.PolicyName, reused[i], res.MeanRecall)
			}
		}
	}
}

// TestEvaluateRepeatable guards against scratch-reuse bugs that would make
// two runs of the same configuration disagree (e.g. a buffer surviving
// across Evaluate calls).
func TestEvaluateRepeatable(t *testing.T) {
	spec := SpecForModel(model.MustByName("opt-6.7b"), 7)
	spec.Layers = 4
	a := Evaluate(spec, attention.MustByName("swa", 0.2, spec.Layers), 128)
	b := Evaluate(spec, attention.MustByName("swa", 0.2, spec.Layers), 128)
	if field, ok := resultsIdentical(a, b); !ok {
		t.Fatalf("repeated Evaluate diverged in %s", field)
	}
}

// TestSWAGoldenAtSparsity80 pins the headline accuracy numbers: SWA at the
// paper's 80 % KV sparsity setting on an OPT-6.7B-calibrated process. The
// values were produced by EvaluateSequential and must not drift, because
// fig8/fig4 build directly on them (recorded in EXPERIMENTS.md).
func TestSWAGoldenAtSparsity80(t *testing.T) {
	const (
		steps      = 256
		ratio      = 0.2 // KV sparsity 0.8
		goldenSeed = 4242

		wantMeanRecall = 0.8562643250469790
		wantSpearman   = 0.9591124971389334
	)
	spec := SpecForModel(model.MustByName("opt-6.7b"), goldenSeed)
	spec.Layers = 4
	res := Evaluate(spec, attention.MustByName("swa", ratio, spec.Layers), steps)
	rho, err := res.SpearmanVsDense()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanRecall-wantMeanRecall) > 1e-9 {
		t.Errorf("MeanRecall = %.16f, golden %.16f", res.MeanRecall, wantMeanRecall)
	}
	if math.Abs(rho-wantSpearman) > 1e-9 {
		t.Errorf("Spearman = %.16f, golden %.16f", rho, wantSpearman)
	}
}

// TestNextMatchesNextInto checks the compat wrapper and the zero-alloc
// variant generate identical rows from identical seeds.
func TestNextMatchesNextInto(t *testing.T) {
	a := New(DefaultSpec(3, 5))
	b := New(DefaultSpec(3, 5))
	var rows [][]float64
	for step := 0; step < 32; step++ {
		fresh := a.Next()
		rows = b.NextInto(rows)
		if len(fresh) != len(rows) {
			t.Fatalf("step %d: layer counts differ", step)
		}
		for l := range fresh {
			for i := range fresh[l] {
				if fresh[l][i] != rows[l][i] {
					t.Fatalf("step %d layer %d pos %d: %v != %v", step, l, i, fresh[l][i], rows[l][i])
				}
			}
		}
	}
}
