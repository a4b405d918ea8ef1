package experiments

import (
	"testing"

	"repro/internal/attention"
	"repro/internal/oracle"
)

// TestRenderedOutputMatchesSequentialReference proves the acceptance
// criterion for the parallel accuracy hot path at the experiment level:
// every oracle-backed figure renders byte-identical output whether the
// cells are evaluated by the parallel scratch-reusing oracle.EvaluateAll
// and oracle.MeanRecalls, each policy set against one shared process, or
// by the retained sequential reference, one call per policy.
func TestRenderedOutputMatchesSequentialReference(t *testing.T) {
	if testing.Short() {
		t.Skip("renders several experiments twice")
	}
	defer func() {
		evalPolicies = oracle.EvaluateAll
		meanRecalls = oracle.MeanRecalls
	}()

	fig8cfg := Fig8Config{
		Models:     []string{"opt-6.7b", "opt-30b"},
		Datasets:   []string{"wikitext-2", "piqa"},
		Sparsities: []float64{0, 0.4, 0.8},
		Steps:      128,
		Layers:     3,
	}
	render := func() map[string]string {
		out := map[string]string{}
		f4, err := Fig4()
		if err != nil {
			t.Fatal(err)
		}
		out["fig4"] = f4.Render()
		f8, err := Fig8(fig8cfg)
		if err != nil {
			t.Fatal(err)
		}
		out["fig8"] = f8.Render()
		f10, err := Fig10()
		if err != nil {
			t.Fatal(err)
		}
		out["fig10"] = f10.Render()
		ab, err := AblationScoring()
		if err != nil {
			t.Fatal(err)
		}
		out["ablation-scoring"] = ab.Render()
		return out
	}

	evalPolicies = oracle.EvaluateAll
	meanRecalls = oracle.MeanRecalls
	parallel := render()
	// Per-policy sequential reference: each policy gets its own fresh
	// process, the semantics EvaluateAll and MeanRecalls promise to
	// reproduce exactly.
	evalPolicies = func(spec oracle.Spec, pols []attention.Policy, steps int) []*oracle.Result {
		out := make([]*oracle.Result, len(pols))
		for i, pol := range pols {
			out[i] = oracle.EvaluateSequential(spec, pol, steps)
		}
		return out
	}
	meanRecalls = func(spec oracle.Spec, pols []attention.Policy, steps int) []float64 {
		out := make([]float64, len(pols))
		for i, pol := range pols {
			out[i] = oracle.EvaluateSequential(spec, pol, steps).MeanRecall
		}
		return out
	}
	sequential := render()

	for id, want := range sequential {
		if parallel[id] != want {
			t.Errorf("%s: parallel rendered output differs from the sequential reference", id)
		}
	}
}
