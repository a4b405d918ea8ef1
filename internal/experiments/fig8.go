package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/attention"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/textfmt"
	"repro/internal/workload"
)

// int8RecallPenalty is the relative attention-mass loss INT8 KV
// compression adds on top of SWA. Fig. 8's observation is that "the
// accuracy of ALISA almost perfectly tracks that of SWA", so the penalty
// is small and constant.
const int8RecallPenalty = 0.002

// Fig8Config sizes the accuracy sweep.
type Fig8Config struct {
	Models     []string
	Datasets   []string
	Sparsities []float64
	Steps      int
	Layers     int
}

// DefaultFig8Config covers all eight models, all seven datasets, and the
// paper's sparsity axis.
func DefaultFig8Config() Fig8Config {
	datasets := make([]string, 0, 7)
	for _, d := range workload.Datasets() {
		datasets = append(datasets, d.Name)
	}
	return Fig8Config{
		Models:     model.Names(),
		Datasets:   datasets,
		Sparsities: []float64{0, 0.2, 0.4, 0.6, 0.8},
		Steps:      256,
		Layers:     4,
	}
}

// Fig8Cell is one point of Fig. 8: a model × dataset × method × sparsity
// accuracy measurement.
type Fig8Cell struct {
	Model      string
	Dataset    string
	Task       string
	Method     string // dense, local, strided, swa, alisa
	KVSparsity float64
	Recall     float64
	// Metric is perplexity for lm tasks (lower better) and accuracy for
	// qa tasks (higher better).
	Metric float64
}

// Fig8Result reproduces Fig. 8.
type Fig8Result struct {
	Config Fig8Config
	Cells  []Fig8Cell
}

// fig8Methods is the method axis of every Fig. 8 panel, in render order.
var fig8Methods = []string{"dense", "local", "strided", "swa", "alisa"}

// Fig8 sweeps KV sparsity for every model × dataset × attention method,
// mapping attention-mass recall to dataset metrics anchored at published
// dense baselines. Cells group by (model, dataset): every cell of a group
// shares one attention process (the seed depends only on those two
// coordinates), so the group evaluates all its policies — local, strided
// and swa at each nonzero sparsity — in a single EvaluateMany pass over
// shared dense rows instead of regenerating the process per cell. Groups
// are independent and run through grid.Run; determinism is preserved
// because each group derives its seed from its coordinates and writes a
// disjoint, pre-assigned block of the result.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	type group struct {
		model model.Config
		ds    workload.Dataset
		dense float64
	}

	cellsPerGroup := len(cfg.Sparsities) * len(fig8Methods)
	var groups []group
	for _, modelName := range cfg.Models {
		mc, err := model.ByName(modelName)
		if err != nil {
			return nil, err
		}
		for _, dsName := range cfg.Datasets {
			ds, err := workload.DatasetByName(dsName)
			if err != nil {
				return nil, err
			}
			dense, err := ds.DenseBaseline(modelName)
			if err != nil {
				return nil, err
			}
			groups = append(groups, group{model: mc, ds: ds, dense: dense})
		}
	}

	cells := make([]Fig8Cell, len(groups)*cellsPerGroup)
	err := grid.Run(context.Background(), len(groups), 0, func(_ context.Context, gi int) {
		g := groups[gi]
		recalls := groupRecalls(g.model, seedFor(g.model.Name, g.ds.Name), cfg)
		for i, r := range recalls {
			cells[gi*cellsPerGroup+i] = Fig8Cell{
				Model: g.model.Name, Dataset: g.ds.Name, Task: g.ds.Task,
				Method: r.method, KVSparsity: r.sparsity,
				Recall: r.recall,
				Metric: recallToMetric(g.ds, g.dense, r.recall),
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Config: cfg, Cells: cells}, nil
}

// fig8Recall is one (sparsity, method) measurement within a group.
type fig8Recall struct {
	sparsity float64
	method   string
	recall   float64
}

// groupRecalls measures attention-mass recall for every (sparsity, method)
// cell of one model × dataset group. All cells that need a live evaluation
// share a single EvaluateMany pass — one attention process instead of one
// per cell; dense and 0 %-sparsity cells have recall 1 by definition.
// ALISA is SWA over INT8 KV, so an alisa cell is not evaluated: it is its
// sparsity's swa cell less int8RecallPenalty.
func groupRecalls(mc model.Config, seed int64, cfg Fig8Config) []fig8Recall {
	spec := oracle.SpecForModel(mc, seed)
	spec.Layers = cfg.Layers

	recalls := make([]fig8Recall, 0, len(cfg.Sparsities)*len(fig8Methods))
	var pols []attention.Policy
	var evaluated []int // indices into recalls awaiting a MeanRecall
	for _, sparsity := range cfg.Sparsities {
		ratio := 1 - sparsity
		for _, method := range fig8Methods {
			if method != "dense" && method != "alisa" && ratio < 1 {
				pols = append(pols, attention.MustByName(method, ratio, spec.Layers))
				evaluated = append(evaluated, len(recalls))
			}
			recalls = append(recalls, fig8Recall{sparsity: sparsity, method: method, recall: 1})
		}
	}
	if len(pols) > 0 {
		for i, res := range evalPolicies(spec, pols, cfg.Steps) {
			recalls[evaluated[i]].recall = res.MeanRecall
		}
	}
	// fig8Methods lists swa before alisa, so each alisa cell follows its
	// sparsity's swa cell.
	var swa float64
	for i := range recalls {
		switch recalls[i].method {
		case "swa":
			swa = recalls[i].recall
		case "alisa":
			recalls[i].recall = swa * (1 - int8RecallPenalty)
		}
	}
	return recalls
}

func recallToMetric(ds workload.Dataset, dense, recall float64) float64 {
	if ds.Task == "lm" {
		return metrics.PerplexityProxy(dense, recall)
	}
	return metrics.AccuracyProxy(dense, ds.Chance, recall)
}

func seedFor(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Cell returns the measurement for the given coordinates, or false.
func (r *Fig8Result) Cell(modelName, dataset, method string, sparsity float64) (Fig8Cell, bool) {
	for _, c := range r.Cells {
		if c.Model == modelName && c.Dataset == dataset && c.Method == method && c.KVSparsity == sparsity {
			return c, true
		}
	}
	return Fig8Cell{}, false
}

// Render implements Renderer, printing each model × dataset panel as a
// metric-vs-sparsity table.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — accuracy under KV sparsity (lm: perplexity ↓, qa: accuracy ↑)\n")
	for _, modelName := range r.Config.Models {
		for _, dsName := range r.Config.Datasets {
			fmt.Fprintf(&b, "\n%s on %s:\n", modelName, dsName)
			hdr := []string{"method"}
			for _, sp := range r.Config.Sparsities {
				hdr = append(hdr, fmt.Sprintf("%.0f%%", sp*100))
			}
			tb := textfmt.NewTable(hdr...)
			for _, method := range fig8Methods {
				row := []string{method}
				for _, sp := range r.Config.Sparsities {
					c, ok := r.Cell(modelName, dsName, method, sp)
					if !ok {
						row = append(row, "-")
						continue
					}
					if c.Task == "lm" {
						row = append(row, formatPPL(c.Metric))
					} else {
						row = append(row, fmt.Sprintf("%.3f", c.Metric))
					}
				}
				tb.AddRow(row...)
			}
			b.WriteString(tb.String())
		}
	}
	return b.String()
}

func formatPPL(p float64) string {
	if p > 1e4 {
		return ">1e4"
	}
	return fmt.Sprintf("%.2f", p)
}
