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
// and swa at each nonzero sparsity — in a single MeanRecalls pass over
// shared dense rows instead of regenerating the process per cell. Groups
// are independent and run through grid.Run; determinism is preserved
// because each group derives its seed from its coordinates and writes a
// disjoint, pre-assigned block of the result.
//
// Every group evaluates the same policy set, and a policy restarts on a
// sequence's first Select (attention.Policy), so a group takes the set a
// finished group put back on a free list before it builds one: at most
// one set is built per concurrently running group. The list is local to
// the call and is dropped with it.
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
	// The free list holds one slot per group, so putting a set back
	// never blocks.
	free := make(chan []attention.Policy, len(groups))
	err := grid.Run(context.Background(), len(groups), 0, func(_ context.Context, gi int) {
		g := groups[gi]
		var pols []attention.Policy
		select {
		case pols = <-free:
		default:
			pols = fig8Policies(cfg)
		}
		recalls := groupRecalls(g.model, seedFor(g.model.Name, g.ds.Name), cfg, pols)
		free <- pols
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

// fig8Evaluated reports whether a cell needs a live evaluation: dense and
// 0 %-sparsity cells have recall 1 by definition, and ALISA is SWA over
// INT8 KV, so an alisa cell is its sparsity's swa cell less
// int8RecallPenalty.
func fig8Evaluated(method string, sparsity float64) bool {
	return method != "dense" && method != "alisa" && 1-sparsity < 1
}

// fig8Policies builds the policy set every group evaluates: one fresh
// policy per evaluated cell, in cell order.
func fig8Policies(cfg Fig8Config) []attention.Policy {
	var pols []attention.Policy
	for _, sparsity := range cfg.Sparsities {
		for _, method := range fig8Methods {
			if fig8Evaluated(method, sparsity) {
				pols = append(pols, attention.MustByName(method, 1-sparsity, cfg.Layers))
			}
		}
	}
	return pols
}

// groupRecalls measures attention-mass recall for every (sparsity, method)
// cell of one model × dataset group. The evaluated cells share a single
// MeanRecalls pass of pols, the group's fig8Policies set (new or used),
// over one attention process instead of one per cell.
func groupRecalls(mc model.Config, seed int64, cfg Fig8Config, pols []attention.Policy) []fig8Recall {
	spec := oracle.SpecForModel(mc, seed)
	spec.Layers = cfg.Layers

	var measured []float64
	if len(pols) > 0 {
		measured = meanRecalls(spec, pols, cfg.Steps)
	}
	recalls := make([]fig8Recall, 0, len(cfg.Sparsities)*len(fig8Methods))
	// fig8Methods lists swa before alisa, so each alisa cell follows its
	// sparsity's swa cell.
	var swa float64
	for _, sparsity := range cfg.Sparsities {
		for _, method := range fig8Methods {
			r := fig8Recall{sparsity: sparsity, method: method, recall: 1}
			switch {
			case fig8Evaluated(method, sparsity):
				r.recall, measured = measured[0], measured[1:]
			case method == "alisa":
				r.recall = swa * (1 - int8RecallPenalty)
			}
			if method == "swa" {
				swa = r.recall
			}
			recalls = append(recalls, r)
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
