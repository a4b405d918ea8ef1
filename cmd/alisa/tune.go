package main

import (
	"context"
	"fmt"
	"io"

	alisa "repro"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/textfmt"
)

// runTune explores the scheduling-parameter space: for a model and
// workload it reports the offline optimizer's chosen {α, β, p1, p2}
// across KV sparsities, alongside ALISA's measured throughput at each
// point — the tooling behind §V-A's "greedy search ... done offline".
func runTune(ctx context.Context, args []string, stdout io.Writer) error {
	f, err := parseFlags("tune", args)
	if err != nil {
		return err
	}
	mc, err := model.ByName(f.model)
	if err != nil {
		return err
	}
	prof := experiments.PaperProfile(mc)
	fmt.Fprintf(stdout, "optimizer sweep: %s on %s, b=%d s=%d n=%d INT%d\n\n",
		mc.Name, prof.Name, f.batch, f.input, f.output, f.bits)

	tb := textfmt.NewTable("KV sparsity", "alpha", "beta", "p1", "p2", "predicted", "measured tput")
	shape := alisa.Shape{Batch: f.batch, Input: f.input, Output: f.output}
	for _, sparsity := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		params, predicted := optimize(mc, prof, shape, sparsity, f.bits)
		eng, err := alisa.New(mc.Name, append(f.engineOptions("alisa"), alisa.WithKVSparsity(sparsity))...)
		if err != nil {
			return err
		}
		res, err := eng.Simulate(ctx, shape)
		measured := "OOM"
		switch {
		case err == nil:
			measured = fmt.Sprintf("%.1f tok/s", res.Throughput)
		case res == nil || !res.OOM:
			return err
		}
		tb.AddRow(
			fmt.Sprintf("%.0f%%", sparsity*100),
			fmt.Sprintf("%.2f", params.Alpha),
			fmt.Sprintf("%.2f", params.Beta),
			fmt.Sprint(params.P1),
			fmt.Sprint(params.P2),
			textfmt.Seconds(predicted),
			measured,
		)
	}
	fmt.Fprintln(stdout, tb.String())
	return nil
}

// optimize reproduces the engine's pre-run state and invokes the offline
// parameter search for one sparsity point, returning the chosen
// parameters and their predicted decode time.
func optimize(mc model.Config, prof memsim.Profile, shape alisa.Shape, sparsity float64, kvbits int) (sched.Params, float64) {
	ctx := &sched.Context{
		Sys: memsim.NewSystem(prof), Cost: costmodel.New(prof), Model: mc,
		Batch: shape.Batch, Input: shape.Input, Output: shape.Output,
		CachingRatio: 1 - sparsity, KVBits: kvbits,
	}
	// A reservation that does not fit still gets a search; its row's
	// measured column reports the OOM.
	_ = ctx.ReserveStatic(false)
	p := sched.Optimize(ctx)
	return p, sched.Predict(ctx, p)
}
