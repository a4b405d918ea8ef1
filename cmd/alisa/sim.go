package main

import (
	"context"
	"fmt"
	"io"
	"os"

	alisa "repro"
	"repro/internal/textfmt"
)

// runSim runs one end-to-end inference simulation and prints the
// throughput, execution-time breakdown, memory peaks and, for ALISA,
// the scheduling phases. -progress streams per-step progress to stderr;
// a cancelled run reports its partial measurements.
func runSim(ctx context.Context, args []string, stdout io.Writer) error {
	f, err := parseFlags("sim", args)
	if err != nil {
		return err
	}
	opts := f.engineOptions(f.sched)
	if f.progress {
		opts = append(opts, alisa.WithObserver(alisa.Observer{
			Step: func(e alisa.StepEvent) {
				if e.Step%64 == 0 {
					fmt.Fprintf(os.Stderr, "step %d: t=%s batch=%d\n",
						e.Step, textfmt.Seconds(e.Clock), e.Batch)
				}
			},
		}))
	}
	eng, err := alisa.New(f.model, opts...)
	if err != nil {
		return err
	}
	res, err := eng.Simulate(ctx, alisa.Shape{Batch: f.batch, Input: f.input, Output: f.output})
	switch {
	case err != nil && res != nil && res.OOM:
		fmt.Fprintf(stdout, "result: OOM — %v\n", err)
		return nil
	case err != nil && res != nil && ctx.Err() != nil:
		fmt.Fprintf(stdout, "cancelled after %s simulated (%d steps measured)\n",
			textfmt.Seconds(res.TotalSeconds), len(res.Steps))
		return nil
	case err != nil:
		return err
	}

	sparsity, bits := f.kv(f.sched)
	fmt.Fprintf(stdout, "model=%s profile=%s scheduler=%s batch=%d s=%d n=%d sparsity=%.0f%% kv=INT%d\n\n",
		eng.Model(), eng.Profile(), eng.Scheduler(), f.batch, f.input, f.output, sparsity*100, bits)
	fmt.Fprintf(stdout, "throughput:  %.1f tokens/s (%d tokens in %s)\n",
		res.Throughput, res.Tokens, textfmt.Seconds(res.TotalSeconds))
	if len(res.Waves) > 1 {
		fmt.Fprintf(stdout, "waves:       %v\n", res.Waves)
	}
	fmt.Fprintf(stdout, "breakdown:   %s\n", res.Breakdown)
	fmt.Fprintf(stdout, "peak memory: GPU %s, CPU %s\n",
		textfmt.Bytes(res.Memory.PeakGPU()), textfmt.Bytes(res.Memory.PeakCPU()))
	if res.Phase2Start >= 0 {
		fmt.Fprintf(stdout, "phase II:    from decode step %d\n", res.Phase2Start)
	}
	if res.Phase3Start >= 0 {
		fmt.Fprintf(stdout, "phase III:   from decode step %d\n", res.Phase3Start)
	}
	return nil
}
