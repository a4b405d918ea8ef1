// Package experiments reproduces every table and figure of the paper's
// evaluation (§III and §VI). Each experiment has a constructor returning a
// structured result plus a Render method that prints the same rows or
// series the paper reports, so `alisa paper` regenerates the full
// evaluation and EXPERIMENTS.md can record paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attention"
	"repro/internal/oracle"
)

// evalPolicies and meanRecalls are the accuracy-evaluation kernels the
// experiments share, both on the parallel scratch-reusing hot path and
// both evaluating a figure's policies against one shared process:
// oracle.EvaluateAll for the figures that read each policy's full Result
// (Fig. 4, Fig. 10 and the scoring ablation), and oracle.MeanRecalls for
// Fig. 8, which reads only each policy's mean recall. The determinism test
// swaps in a per-policy loop over oracle.EvaluateSequential for both, to
// prove rendered experiment output is byte-identical to the sequential
// reference.
var (
	evalPolicies func(oracle.Spec, []attention.Policy, int) []*oracle.Result = oracle.EvaluateAll
	meanRecalls  func(oracle.Spec, []attention.Policy, int) []float64        = oracle.MeanRecalls
)

// Renderer is a result that can print itself for the CLI.
type Renderer interface {
	Render() string
}

// Runner describes one reproducible experiment.
type Runner struct {
	ID    string // e.g. "fig9"
	Title string
	Run   func() (Renderer, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{ID: "table1", Title: "Table I: design comparison of vLLM, FlexGen, and ALISA", Run: func() (Renderer, error) { return Table1() }},
		{ID: "fig1", Title: "Fig. 1: execution time and memory breakdown, OPT-6.7B on V100-32G", Run: func() (Renderer, error) { return Fig1() }},
		{ID: "fig2c", Title: "Fig. 2(c): KV caching vs no caching, time and memory per step", Run: func() (Renderer, error) { return Fig2c() }},
		{ID: "fig3", Title: "Fig. 3: attention weight sparsity across steps and layers", Run: func() (Renderer, error) { return Fig3() }},
		{ID: "fig4", Title: "Fig. 4: attention score distributions and Spearman correlation", Run: func() (Renderer, error) { return Fig4() }},
		{ID: "fig5", Title: "Fig. 5: average dense attention weight maps", Run: func() (Renderer, error) { return Fig5() }},
		{ID: "fig8", Title: "Fig. 8: accuracy under KV sparsity across models and datasets", Run: func() (Renderer, error) { return Fig8(DefaultFig8Config()) }},
		{ID: "fig9", Title: "Fig. 9: end-to-end throughput vs baselines", Run: func() (Renderer, error) { return Fig9(DefaultFig9Config()) }},
		{ID: "fig10", Title: "Fig. 10: attainable attention sparsity vs KV sparsity", Run: func() (Renderer, error) { return Fig10() }},
		{ID: "fig11", Title: "Fig. 11: attention module execution breakdown", Run: func() (Renderer, error) { return Fig11() }},
		{ID: "fig12a", Title: "Fig. 12(a): per-phase execution time and memory", Run: func() (Renderer, error) { return Fig12a() }},
		{ID: "fig12b", Title: "Fig. 12(b): impact of recomputation", Run: func() (Renderer, error) { return Fig12b() }},
		{ID: "fig12c", Title: "Fig. 12(c): ablation of SWA, dynamic scheduling, and compression", Run: func() (Renderer, error) { return Fig12c() }},
		{ID: "ablation-scoring", Title: "Extra: token-importance scoring ablation (local sum vs H2O global sum)", Run: func() (Renderer, error) { return AblationScoring() }},
		{ID: "numeric", Title: "Extra: live-decoder cross-validation of the accuracy orderings", Run: func() (Renderer, error) { return AblationNumeric() }},
		{ID: "extension-int4", Title: "Extra: INT4 KV compression extension (§V-B future direction)", Run: func() (Renderer, error) { return ExtensionInt4() }},
		{ID: "ablation-caching", Title: "Extra: caching-policy ablation vs Belady's oracle (§III-B)", Run: func() (Renderer, error) { return AblationCaching() }},
		{ID: "ablation-eviction", Title: "Extra: keep-local eviction order ablation (§V-A)", Run: func() (Renderer, error) { return AblationEviction() }},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, r := range All() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(ids, ", "))
}
