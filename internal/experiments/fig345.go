package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attention"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/textfmt"
)

// fig3Layers is the layer sample per model for the sparsity sweep; the
// statistics are layer-exchangeable, so a sample stands in for all layers.
const fig3Layers = 8

// Fig3Series is one model's attention-sparsity trajectory.
type Fig3Series struct {
	Model            string
	MeanSparsity     float64
	PerStep          []float64 // averaged across layers
	PerLayerFinal    []float64 // per-layer sparsity at the final step window
	MinLayer, MaxLay float64
}

// Fig3Result reproduces Fig. 3: attention weight sparsity (1 %-of-row-max
// threshold) across decode steps and layers for the OPT family.
type Fig3Result struct {
	Steps  int
	Series []Fig3Series
}

// Fig3 measures dense attention sparsity for OPT-6.7B/13B/30B processes.
func Fig3() (*Fig3Result, error) {
	const steps = 512
	res := &Fig3Result{Steps: steps}
	for _, name := range []string{"opt-6.7b", "opt-13b", "opt-30b"} {
		cfg := model.MustByName(name)
		spec := oracle.SpecForModel(cfg, 101)
		spec.Layers = fig3Layers
		proc := oracle.New(spec)

		series := Fig3Series{Model: name, PerStep: make([]float64, steps)}
		perLayerSum := make([]float64, fig3Layers)
		perLayerN := 0
		var total float64
		var totalN int
		var rows [][]float64 // step-scoped row buffers, reused every step
		for t := 0; t < steps; t++ {
			rows = proc.NextInto(rows)
			var stepSum float64
			for l, row := range rows {
				sp := metrics.Sparsity(row, 0.01)
				stepSum += sp
				if t >= steps-64 { // final window for the per-layer view
					perLayerSum[l] += sp
				}
			}
			if t >= steps-64 {
				perLayerN++
			}
			series.PerStep[t] = stepSum / float64(len(rows))
			if t >= 64 { // skip short-row regime, as the paper's x-axis does
				total += series.PerStep[t]
				totalN++
			}
		}
		series.MeanSparsity = total / float64(totalN)
		series.PerLayerFinal = make([]float64, fig3Layers)
		series.MinLayer, series.MaxLay = 1, 0
		for l := range perLayerSum {
			v := perLayerSum[l] / float64(perLayerN)
			series.PerLayerFinal[l] = v
			if v < series.MinLayer {
				series.MinLayer = v
			}
			if v > series.MaxLay {
				series.MaxLay = v
			}
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 3 — attention weight sparsity (zeros below 1% of row max)\n\n")
	tb := textfmt.NewTable("model", "mean sparsity", "layer min", "layer max", "density vs opt-6.7b")
	base := 1 - r.Series[0].MeanSparsity
	for _, s := range r.Series {
		density := 1 - s.MeanSparsity
		tb.AddRow(s.Model,
			fmt.Sprintf("%.1f%%", s.MeanSparsity*100),
			fmt.Sprintf("%.1f%%", s.MinLayer*100),
			fmt.Sprintf("%.1f%%", s.MaxLay*100),
			fmt.Sprintf("%.2fx", density/base))
	}
	b.WriteString(tb.String())
	b.WriteString("\nsparsity vs step (every 64th):\n")
	tb2Hdr := []string{"step"}
	for _, s := range r.Series {
		tb2Hdr = append(tb2Hdr, s.Model)
	}
	tb2 := textfmt.NewTable(tb2Hdr...)
	for t := 64; t < r.Steps; t += 64 {
		row := []string{fmt.Sprint(t)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.1f%%", s.PerStep[t]*100))
		}
		tb2.AddRow(row...)
	}
	b.WriteString(tb2.String())
	return b.String()
}

// Fig4Series is one attention method's score distribution and its rank
// correlation against dense attention.
type Fig4Series struct {
	Policy   string
	Spearman float64
	// TopScores is the sorted (descending) average attention score
	// distribution — the curve under each Fig. 4 panel.
	TopScores []float64
	Recall    float64
}

// Fig4Result reproduces Fig. 4: dense vs local vs strided vs SWA.
type Fig4Result struct {
	KVSparsity float64
	Series     []Fig4Series
}

// Fig4 evaluates the four attention methods at 80 % KV sparsity on an
// OPT-6.7B-calibrated process.
func Fig4() (*Fig4Result, error) {
	const (
		ratio = 0.2
		steps = 384
	)
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), 202)
	spec.Layers = 4

	policies := []attention.Policy{
		attention.MustByName("dense", ratio, spec.Layers),
		attention.MustByName("local", ratio, spec.Layers),
		attention.MustByName("strided", ratio, spec.Layers),
		attention.MustByName("swa", ratio, spec.Layers),
	}
	res := &Fig4Result{KVSparsity: 1 - ratio}
	for i, ev := range evalPolicies(spec, policies, steps) {
		pol := policies[i]
		rho := 1.0
		if pol.Name() != "dense" {
			var err error
			rho, err = ev.SpearmanVsDense()
			if err != nil {
				return nil, fmt.Errorf("fig4 %s: %w", pol.Name(), err)
			}
		}
		scores := append([]float64(nil), ev.AvgScore...)
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		if len(scores) > 16 {
			scores = scores[:16]
		}
		res.Series = append(res.Series, Fig4Series{
			Policy:    pol.Name(),
			Spearman:  rho,
			TopScores: scores,
			Recall:    ev.MeanRecall,
		})
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — attention score distributions at %.0f%% KV sparsity\n\n", r.KVSparsity*100)
	tb := textfmt.NewTable("method", "Spearman ρ", "mass recall", "top-4 avg scores")
	for _, s := range r.Series {
		top := make([]string, 0, 4)
		for i := 0; i < 4 && i < len(s.TopScores); i++ {
			top = append(top, fmt.Sprintf("%.3f", s.TopScores[i]))
		}
		tb.AddRow(s.Policy, fmt.Sprintf("%.3f", s.Spearman),
			fmt.Sprintf("%.3f", s.Recall), strings.Join(top, " "))
	}
	b.WriteString(tb.String())
	return b.String()
}

// Fig5Result reproduces Fig. 5: average dense attention weight maps.
type Fig5Result struct {
	SeqLen int
	Maps   []Fig5Map
}

// Fig5Map is one panel: an averaged lower-triangular weight map.
type Fig5Map struct {
	Label string
	Map   [][]float64
}

// Fig5 renders averaged attention maps for a 16-token sequence at four
// seeds, standing in for the four layer depths of the paper's figure.
func Fig5() (*Fig5Result, error) {
	const seqLen = 16
	res := &Fig5Result{SeqLen: seqLen}
	for i, label := range []string{"layer 0", "layer 8", "layer 16", "layer 24"} {
		spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), int64(300+i))
		spec.Layers = 2
		res.Maps = append(res.Maps, Fig5Map{Label: label, Map: oracle.AttentionMap(spec, seqLen)})
	}
	return res, nil
}

// Render implements Renderer.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — average attention weight maps (seq len %d, dark = heavy)\n", r.SeqLen)
	for _, m := range r.Maps {
		fmt.Fprintf(&b, "\n%s:\n%s", m.Label, textfmt.Heatmap(m.Map))
	}
	return b.String()
}
