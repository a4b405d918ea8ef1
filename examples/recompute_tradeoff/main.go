// Recompute trade-off: the paper's Fig. 12(b) scenario — on a fast GPU,
// deleting old KV from CPU memory and recomputing it on demand beats
// fetching it over PCIe. This example shows the per-token economics, the
// offline optimizer's resulting {α, β, p1, p2}, and the end-to-end effect
// of disabling Phase III.
//
//	go run ./examples/recompute_tradeoff
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/textfmt"
)

func main() {
	mc := model.MustByName("opt-30b")
	prof := experiments.PaperProfile(mc)
	cost := costmodel.New(prof)
	const batch = 64

	// Per-token economics (Table II's Tr vs Tm): recomputing one token
	// position vs fetching its KV over PCIe.
	recompute := cost.RecomputeTime(&mc, batch, 1)
	fetch := float64(batch*int(mc.KVBytesPerToken(2))) / prof.PCIeBandwidth
	fmt.Printf("%s on %s, batch %d, FP16 KV\n\n", mc.Name, prof.Name, batch)
	fmt.Printf("per token position:  recompute %s   vs   PCIe fetch %s\n",
		textfmt.Seconds(recompute), textfmt.Seconds(fetch))
	if recompute < fetch {
		fmt.Println("→ recomputation wins per token; Phase III should engage.")
	} else {
		fmt.Println("→ fetching wins per token; the optimizer should keep β = 0.")
	}

	// What the offline optimizer concludes: Eq. 5's greedy search, with
	// each candidate costed by a dry run of the scheduler.
	ctx := &sched.Context{
		Sys: memsim.NewSystem(prof), Cost: cost, Model: mc,
		Batch: batch, Input: 128, Output: 512,
		CachingRatio: 0.2, KVBits: 16,
	}
	must(ctx.ReserveStatic(false))
	p := sched.Optimize(ctx)
	fmt.Printf("\noptimizer:  α=%.2f  β=%.2f  p1=%d  p2=%d  (predicted %s)\n",
		p.Alpha, p.Beta, p.P1, p.P2, textfmt.Seconds(sched.Predict(ctx, p)))

	// End-to-end: Phase III on vs off.
	run := func(s sched.Scheduler) *core.Result {
		res, err := core.Run(context.Background(), core.Config{
			Model: mc, Profile: prof, Scheduler: s,
			Batch: batch, Input: 128, Output: 512,
			KVSparsity: 0.8, KVBits: 16,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	with := run(sched.MustByName("alisa"))
	without := run(sched.NewAlisaManual(0, 512, false))
	fmt.Printf("\nend to end:  with recompute %s   without %s   (%.2fx)\n",
		textfmt.Seconds(with.TotalSeconds), textfmt.Seconds(without.TotalSeconds),
		without.TotalSeconds/with.TotalSeconds)
	fmt.Printf("with-recompute breakdown: %s\n", with.Breakdown)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
