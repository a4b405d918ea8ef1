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

// EvictionRow compares one eviction order at one sparsity.
type EvictionRow struct {
	Order      string
	KVSparsity float64
	Throughput float64
	TransferS  float64
}

// EvictionResult is the keep-local ablation (DESIGN.md §4.5): ALISA's
// oldest-first offloading keeps the locally static window GPU-resident
// ("we choose to keep the KV tensors for the locally static tokens in the
// GPU", §V-A); inverting the order streams the window from CPU memory
// every step.
type EvictionResult struct {
	Rows []EvictionRow
}

// AblationEviction runs both eviction orders on the memory-pressured
// headline workload.
func AblationEviction() (*EvictionResult, error) {
	mc := model.MustByName("opt-6.7b")
	prof := PaperProfile(mc)
	spec := workload.Alpaca(64)
	res := &EvictionResult{}
	for _, sparsity := range []float64{0.6, 0.8} {
		for _, newestFirst := range []bool{false, true} {
			s := sched.MustByName("alisa")
			if newestFirst {
				s = sched.NewAlisaNewestFirst()
			}
			out, err := core.Run(context.Background(), core.Config{
				Model: mc, Profile: prof, Scheduler: s,
				Batch: spec.Batch, Input: spec.Input, Output: spec.Output,
				KVSparsity: sparsity, KVBits: 8,
			})
			if err != nil {
				return nil, fmt.Errorf("eviction ablation: %w", err)
			}
			order := "keep-local (oldest-first)"
			if newestFirst {
				order = "inverted (newest-first)"
			}
			res.Rows = append(res.Rows, EvictionRow{
				Order:      order,
				KVSparsity: sparsity,
				Throughput: out.Throughput,
				TransferS:  out.Breakdown.Get(trace.CatTransfer),
			})
		}
	}
	return res, nil
}

// Render implements Renderer.
func (r *EvictionResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — offload (eviction) order for ALISA's GPU cache (§V-A)\n\n")
	tb := textfmt.NewTable("KV sparsity", "eviction order", "throughput", "transfer time")
	for _, row := range r.Rows {
		tb.AddRow(fmt.Sprintf("%.0f%%", row.KVSparsity*100), row.Order,
			fmt.Sprintf("%.1f tok/s", row.Throughput),
			textfmt.Seconds(row.TransferS))
	}
	b.WriteString(tb.String())
	return b.String()
}
