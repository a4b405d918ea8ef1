package main

import (
	"context"
	"fmt"
	"io"

	alisa "repro"
	"repro/internal/textfmt"
)

// runCluster runs the replicated-fleet serving simulator: N engine
// replicas behind a router, swept over (router × offered load × fleet
// size) and reported as SLO attainment versus request rate versus
// replica count — the fleet-level load curves on top of serve's
// single-engine tables. -profiles cycles hardware tiers across replicas;
// -autoscale lets each fleet grow to -as-max on missed SLO and shrink on
// sustained idle. Every cell is one deterministic fleet simulation, so
// the tables are the same under any -parallel setting.
func runCluster(ctx context.Context, args []string, stdout io.Writer) error {
	f, err := parseFlags("cluster", args)
	if err != nil {
		return err
	}
	eng, err := alisa.New(f.model, f.engineOptions(f.sched)...)
	if err != nil {
		return err
	}
	rates, sizes := f.rateVals, f.sizes
	traces := make([]alisa.TraceWorkload, len(rates))
	for ri, r := range rates {
		traces[ri] = alisa.PoissonTrace(f.n, r, f.seed)
	}

	// Cell c = (router × rate) × size.
	cells := len(f.routerNames) * len(rates) * len(sizes)
	results, errs, started := runCells(ctx, cells, f.parallel, func(cellCtx context.Context, c int) (*alisa.ClusterResult, error) {
		size := sizes[c%len(sizes)]
		cs := alisa.ClusterSpec{
			Replicas: size,
			Profiles: splitList(f.profiles),
			Router:   f.routerNames[c/(len(sizes)*len(rates))],
		}
		if f.autoscale {
			cs.Autoscale = &alisa.ClusterAutoscale{Min: size, Max: f.asMax, SLOTarget: f.asTarget, IdleAfter: f.asIdle}
		}
		return eng.ServeCluster(cellCtx, cs, traces[c/len(sizes)%len(rates)])
	})

	for pi, router := range f.routerNames {
		fmt.Fprintf(stdout, "## %s, %d requests (seed %d) — router %s: SLO attainment vs rate vs fleet size\n\n",
			f.model, f.n, f.seed, router)
		header := []string{"req/s"}
		for _, size := range sizes {
			header = append(header, fmt.Sprintf("n=%d SLO%%", size), fmt.Sprintf("n=%d tok/s", size))
		}
		tb := textfmt.NewTable(header...)
		for ri, r := range rates {
			row := []string{fmt.Sprintf("%.1f", r)}
			for si := range sizes {
				c := (pi*len(rates)+ri)*len(sizes) + si
				res := results[c]
				suffix, cellErr := classifyCell(nil, started[c], res, errs[c], ctx.Err() != nil, f.n)
				if cellErr != nil {
					row = append(row, "error: "+cellErr.Error(), "—")
					continue
				}
				slo := fmt.Sprintf("%.0f%%", res.SLOAttainment*100)
				if f.autoscale {
					slo += fmt.Sprintf(" (peak %d)", res.PeakReplicas)
				}
				row = append(row, slo+suffix, fmt.Sprintf("%.1f", res.Throughput))
			}
			tb.AddRow(row...)
		}
		fmt.Fprintln(stdout, tb.String())
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stdout, "(grid cancelled; unstarted cells were skipped)")
	}
	return nil
}
