package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/textfmt"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Int4Row is one precision point of the INT4 extension study.
type Int4Row struct {
	Model      string
	KVBits     int
	Throughput float64
	TransferS  float64
}

// Int4Result is the paper's future-work direction made concrete: §V-B
// cites Dettmers & Zettlemoyer that OPT models stay accurate down to
// INT4, while the paper ships INT8 "to generalize to more LLMs". This
// experiment quantifies what INT4 KV would buy on the system side; the
// accuracy cost appears in the numeric cross-validation (swa+int4 row).
type Int4Result struct {
	Rows []Int4Row
}

// ExtensionInt4 sweeps KV precision at the headline workload.
func ExtensionInt4() (*Int4Result, error) {
	res := &Int4Result{}
	for _, name := range []string{"opt-6.7b", "opt-30b"} {
		mc := model.MustByName(name)
		prof := PaperProfile(mc)
		spec := workload.Alpaca(64)
		for _, bits := range []int{16, 8, 4} {
			out, err := core.Run(context.Background(), core.Config{
				Model: mc, Profile: prof, Scheduler: sched.MustByName("alisa"),
				Batch: spec.Batch, Input: spec.Input, Output: spec.Output,
				KVSparsity: 0.8, KVBits: bits,
			})
			if err != nil {
				return nil, fmt.Errorf("int4 extension %s/%d: %w", name, bits, err)
			}
			res.Rows = append(res.Rows, Int4Row{
				Model:      name,
				KVBits:     bits,
				Throughput: out.Throughput,
				TransferS:  out.Breakdown.Get(trace.CatTransfer),
			})
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *Int4Result) Render() string {
	var b strings.Builder
	b.WriteString("Extension — INT4 KV compression (paper §V-B cites INT4 viability for OPT)\n")
	b.WriteString("ALISA at 80% KV sparsity, Alpaca workload, batch 64\n\n")
	tb := textfmt.NewTable("model", "KV precision", "throughput", "transfer time")
	for _, row := range r.Rows {
		tb.AddRow(row.Model, fmt.Sprintf("INT%d", row.KVBits),
			fmt.Sprintf("%.1f tok/s", row.Throughput),
			textfmt.Seconds(row.TransferS))
	}
	b.WriteString(tb.String())
	b.WriteString("\nAccuracy side: see the `numeric` experiment — INT4 KV is measurably\n")
	b.WriteString("noisier than INT8 on live tensors, matching the paper's caution.\n")
	return b.String()
}
