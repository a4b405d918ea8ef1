package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attention"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/oracle"
	"repro/internal/textfmt"
)

// ScoringRow compares token-importance scoring signals at one sparsity.
type ScoringRow struct {
	Policy     string
	KVSparsity float64
	Recall     float64
	Spearman   float64
}

// ScoringResult is the design-choice ablation behind SWA's local attention
// sum (DESIGN.md §4.1): the same budget allocated by recency (local),
// stride, cumulative attention sum (H2O), and ALISA's local sum, measured
// on a drifting-hitter process where stale heavy hitters are the failure
// mode the paper attributes to H2O (§II-B).
type ScoringResult struct {
	Rows []ScoringRow
}

// AblationScoring sweeps the scoring signals across sparsities.
func AblationScoring() (*ScoringResult, error) {
	const steps = 320
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), 1234)
	spec.Layers = 4
	// Faster hitter turnover stresses the stale-hitter distinction.
	spec.HitterLifetime = 24

	// Every signal at every sparsity runs against one shared process.
	var policies []attention.Policy
	var sparsities []float64
	for _, sparsity := range []float64{0.6, 0.8, 0.9} {
		ratio := 1 - sparsity
		for _, name := range []string{"local", "strided", "h2o", "swa"} {
			policies = append(policies, attention.MustByName(name, ratio, spec.Layers))
			sparsities = append(sparsities, sparsity)
		}
	}
	res := &ScoringResult{}
	for i, ev := range evalPolicies(spec, policies, steps) {
		rho, err := ev.SpearmanVsDense()
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", ev.PolicyName, err)
		}
		res.Rows = append(res.Rows, ScoringRow{
			Policy:     ev.PolicyName,
			KVSparsity: sparsities[i],
			Recall:     ev.MeanRecall,
			Spearman:   rho,
		})
	}
	return res, nil
}

// Render implements Renderer.
func (r *ScoringResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — token-importance scoring signals (drifting-hitter process)\n\n")
	tb := textfmt.NewTable("KV sparsity", "policy", "mass recall", "Spearman ρ")
	for _, row := range r.Rows {
		tb.AddRow(fmt.Sprintf("%.0f%%", row.KVSparsity*100), row.Policy,
			fmt.Sprintf("%.3f", row.Recall), fmt.Sprintf("%.3f", row.Spearman))
	}
	b.WriteString(tb.String())
	return b.String()
}

// NumericRow is one live-tensor validation point.
type NumericRow struct {
	Policy       string
	KVBits       int
	LogitCosine  float64
	TopAgreement float64
	NLLDelta     float64 // policy NLL − dense NLL
}

// NumericResult cross-validates the accuracy orderings on the runnable
// decoder (real softmax attention), including quantized KV storage.
type NumericResult struct {
	Tokens int
	Rows   []NumericRow
}

// AblationNumeric runs dense/local/SWA/ALISA(+INT8/+INT4) on live tensors.
func AblationNumeric() (*NumericResult, error) {
	const tokens = 96
	cfg := model.SmallConfig()
	names := []string{"dense", "dense+int8", "local", "swa", "swa+int8", "swa+int4"}
	cases := []numeric.Case{
		{},
		{KVBits: 8},
		{Policy: attention.MustByName("local", 0.4, cfg.Layers)},
		{Policy: attention.MustByName("swa", 0.4, cfg.Layers)},
		{Policy: attention.MustByName("swa", 0.4, cfg.Layers), KVBits: 8},
		{Policy: attention.MustByName("swa", 0.4, cfg.Layers), KVBits: 4},
	}
	reps, err := numeric.Compare(numeric.Config{ModelSeed: 11, DataSeed: 12, Tokens: tokens}, cases...)
	if err != nil {
		return nil, fmt.Errorf("numeric ablation: %w", err)
	}
	res := &NumericResult{Tokens: tokens}
	for i, rep := range reps {
		res.Rows = append(res.Rows, NumericRow{
			Policy:       names[i],
			KVBits:       cases[i].KVBits,
			LogitCosine:  rep.LogitCosine,
			TopAgreement: rep.TopAgreement,
			NLLDelta:     rep.MeanNLL - rep.DenseNLL,
		})
	}
	return res, nil
}

// Render implements Renderer.
func (r *NumericResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Numeric cross-validation — live decoder, %d-token stream, 60%% KV sparsity\n\n", r.Tokens)
	tb := textfmt.NewTable("configuration", "logit cosine", "top-1 agreement", "ΔNLL vs dense")
	for _, row := range r.Rows {
		tb.AddRow(row.Policy,
			fmt.Sprintf("%.4f", row.LogitCosine),
			fmt.Sprintf("%.3f", row.TopAgreement),
			fmt.Sprintf("%+.4f", row.NLLDelta))
	}
	b.WriteString(tb.String())
	return b.String()
}
