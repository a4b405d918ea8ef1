package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attention"
	"repro/internal/costmodel"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/textfmt"
)

// Fig10Point is one point of Fig. 10.
type Fig10Point struct {
	Model             string
	KVSparsity        float64
	AttentionSparsity float64 // measured on SWA-masked rows
	DenseSparsity     float64 // the dense-attention ceiling
}

// Fig10Result reproduces Fig. 10: attainable attention weight sparsity as
// a function of KV sparsity.
type Fig10Result struct {
	Points []Fig10Point
}

// Fig10 sweeps SWA KV sparsity on OPT-6.7B and OPT-30B processes.
func Fig10() (*Fig10Result, error) {
	const steps = 320
	res := &Fig10Result{}
	for _, name := range []string{"opt-6.7b", "opt-30b"} {
		mc := model.MustByName(name)
		spec := oracle.SpecForModel(mc, 404)
		spec.Layers = 4
		sparsities := []float64{0, 0.2, 0.4, 0.6, 0.8}
		pols := make([]attention.Policy, len(sparsities))
		for i, sparsity := range sparsities {
			ratio := 1 - sparsity
			pols[i] = attention.MustByName("swa", ratio, spec.Layers)
			if sparsity == 0 {
				pols[i] = attention.MustByName("dense", ratio, spec.Layers)
			}
		}
		for i, ev := range evalPolicies(spec, pols, steps) {
			res.Points = append(res.Points, Fig10Point{
				Model:             name,
				KVSparsity:        sparsities[i],
				AttentionSparsity: metrics.Mean(ev.MaskedSparsityPerStep[64:]),
				DenseSparsity:     metrics.Mean(ev.DenseSparsityPerStep[64:]),
			})
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 10 — attention weight sparsity attained by SWA vs KV sparsity\n\n")
	tb := textfmt.NewTable("model", "KV sparsity", "attained attn sparsity", "dense attn sparsity")
	for _, p := range r.Points {
		tb.AddRow(p.Model,
			fmt.Sprintf("%.0f%%", p.KVSparsity*100),
			fmt.Sprintf("%.1f%%", p.AttentionSparsity*100),
			fmt.Sprintf("%.1f%%", p.DenseSparsity*100))
	}
	b.WriteString(tb.String())
	return b.String()
}

// Fig11Row is one bar of Fig. 11: an attention module configuration with
// its per-operation times and effective FLOPS.
type Fig11Row struct {
	Model      string
	KVSparsity float64
	Breakdown  costmodel.AttnBreakdown
}

// Fig11Result reproduces Fig. 11: single-attention-module execution time
// broken into QKᵀ, local attention sum, sparse-KV gather, softmax and
// AW·V, with effective FLOPS per op.
type Fig11Result struct {
	Batch, SeqLen int
	Rows          []Fig11Row
}

// Fig11 profiles the SWA attention module at the paper's configuration:
// batch 64, sequence length 128, both models on one card (an op-level
// microbenchmark isolating the dimension effect; the paper's comparison
// is SWA-to-SWA across KV sparsity, so the 0 % row also pays SWA's
// local-sum and gather overheads).
func Fig11() (*Fig11Result, error) {
	const (
		batch  = 64
		seqLen = 128
	)
	cost := costmodel.New(memsim.H100_80G())
	res := &Fig11Result{Batch: batch, SeqLen: seqLen}
	for _, name := range []string{"opt-6.7b", "opt-30b"} {
		mc := model.MustByName(name)
		for _, sparsity := range []float64{0, 0.4, 0.8} {
			// The conversion rounds the product before the add, so no
			// platform fuses the two into one multiply-add.
			attended := int(float64(float64(seqLen)*(1-sparsity)) + 0.5)
			if attended < 1 {
				attended = 1
			}
			cfg := costmodel.AttnConfig{
				Batch: batch, Hidden: mc.Hidden, Heads: mc.Heads,
				Attended: attended, BytesKV: 2,
				LocalWindow: attended / 2,
			}
			res.Rows = append(res.Rows, Fig11Row{
				Model:      name,
				KVSparsity: sparsity,
				Breakdown:  cost.Attention(cfg),
			})
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 — attention module breakdown (b=%d, s=%d); GFLOPS in brackets\n\n", r.Batch, r.SeqLen)
	tb := textfmt.NewTable("model", "KV sparsity", "QKᵀ", "local sum", "gather", "softmax", "AW·V", "total")
	for _, row := range r.Rows {
		bd := row.Breakdown
		cell := func(s costmodel.Sample) string {
			if s.Seconds == 0 {
				return "-"
			}
			if s.FLOPs == 0 {
				return textfmt.Seconds(s.Seconds)
			}
			return fmt.Sprintf("%s [%.0f]", textfmt.Seconds(s.Seconds), s.EffFLOPS()/1e9)
		}
		tb.AddRow(row.Model,
			fmt.Sprintf("%.0f%%", row.KVSparsity*100),
			cell(bd.QKT), cell(bd.LocalSum), cell(bd.Gather),
			cell(bd.Softmax), cell(bd.AV),
			textfmt.Seconds(bd.Total()))
	}
	b.WriteString(tb.String())
	return b.String()
}
