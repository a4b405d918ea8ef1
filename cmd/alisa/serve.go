package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	alisa "repro"
	"repro/internal/grid"
	"repro/internal/textfmt"
)

// runServe runs the continuous-batching serving simulator and compares
// KV placement schedulers on serving metrics: TTFT, TPOT, tail latency
// and goodput.
//
// Open loop (the default) replays a Poisson trace at each -rates value.
// -closed-loop switches to N concurrent clients that each issue a
// request, wait for its completion, think (-think, exponential) and
// issue the next — offered load adapts to system speed — and prints
// latency versus concurrency per scheduler. -workload swaps the plain
// trace for a prefix-sharing shape: "conv" (multi-turn conversations
// replaying growing histories), "agent" (tool-calling loops sharing a
// preamble; closed loop only) or "rag" (retrieval prompts over a
// popularity-skewed document set; open loop only). With -prefix-cache
// the engines share block-aligned prompt prefixes copy-on-write, and the
// tables grow hit-rate and prefilled-token columns.
//
// Each scheduler's engine is compiled once and reused by every cell.
// With -parallel the (scheduler × load) cells run on a bounded worker
// pool; every cell is a single-goroutine deterministic simulation, so
// the tables match a serial run. Cancelling ctx reports in-flight cells
// over the requests that completed and skips unstarted ones.
func runServe(ctx context.Context, args []string, stdout io.Writer) error {
	f, err := parseFlags("serve", args)
	if err != nil {
		return err
	}
	// A scheduler that fails to compile (unknown name, bad option)
	// renders as an error row in every table instead of aborting the
	// comparison.
	names := splitList(f.sched)
	engines := make(map[string]*alisa.Engine, len(names))
	compileErr := make(map[string]error, len(names))
	for _, name := range names {
		opts := f.engineOptions(name)
		if f.prefixCache {
			opts = append(opts, alisa.WithPrefixCache(alisa.PrefixCache{BlockTokens: f.prefixBlock}))
		}
		if f.progress {
			// One observer serves every cell of this scheduler; with
			// -parallel those cells run concurrently, so delivery is
			// serialized.
			opts = append(opts, alisa.WithObserver(alisa.SynchronizedObserver(progressObserver(name))))
		}
		engines[name], compileErr[name] = alisa.New(f.model, opts...)
	}
	if len(f.clients) > 0 {
		return runClosedLoop(ctx, stdout, f, names, engines, compileErr)
	}

	// Cell (ri, si) = rates[ri] × names[si].
	traces := make([]alisa.TraceWorkload, len(f.rateVals))
	for ri, r := range f.rateVals {
		if traces[ri], err = makeTrace(f.workload, f.n, r, f.seed); err != nil {
			return err
		}
	}
	results, errs, started := runCells(ctx, len(traces)*len(names), f.parallel, func(cellCtx context.Context, c int) (*alisa.ServeResult, error) {
		eng := engines[names[c%len(names)]]
		if eng == nil {
			return nil, nil // compile error renders from compileErr
		}
		return eng.Serve(cellCtx, traces[c/len(names)])
	})

	for ri, r := range f.rateVals {
		fmt.Fprintf(stdout, "## %s, %d %s requests, %.2f req/s (seed %d)\n\n",
			f.model, len(traces[ri]), workloadLabel(f.workload), r, f.seed)
		tb := textfmt.NewTable(tableCols(f.prefixCache, "scheduler", "tput tok/s", "goodput", "SLO%",
			"TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "preempt", "batch")...)
		for si, name := range names {
			c := ri*len(names) + si
			res := results[c]
			suffix, rowErr := classifyCell(compileErr[name], started[c], res, errs[c], ctx.Err() != nil, len(traces[ri]))
			if rowErr != nil {
				addErrorRow(tb, name, rowErr)
				continue
			}
			tb.AddRow(prefixRow(f.prefixCache, res,
				name+suffix,
				fmt.Sprintf("%.1f", res.Throughput),
				fmt.Sprintf("%.1f", res.Goodput),
				fmt.Sprintf("%.0f%%", res.SLOAttainment*100),
				textfmt.Seconds(res.TTFT.P50), textfmt.Seconds(res.TTFT.P99),
				textfmt.Seconds(res.TPOT.P50), textfmt.Seconds(res.TPOT.P99),
				fmt.Sprintf("%d", res.Preemptions),
				fmt.Sprintf("%.1f", res.MeanBatch))...)
		}
		fmt.Fprintln(stdout, tb.String())
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stdout, "(sweep cancelled; unstarted cells were skipped)")
	}
	return nil
}

// convTurns and scriptMaxSeq fix the workload-shape knobs the CLI does
// not expose: six-turn conversations and agent loops, capped at the
// catalog's universal 2048-token context.
const (
	convTurns    = 6
	scriptMaxSeq = 2048
)

// makeTrace builds one open-loop trace at the offered rate: the plain
// Poisson shape trace, or a token-carrying prefix-sharing workload. n is
// the request budget; the conversation shape rounds it up to whole
// conversations.
func makeTrace(workload string, n int, rate float64, seed int64) (alisa.TraceWorkload, error) {
	switch workload {
	case "conv":
		return alisa.NewConversationTrace((n+convTurns-1)/convTurns, convTurns, rate, scriptMaxSeq, seed)
	case "rag":
		return alisa.NewRAGTrace(n, rate, scriptMaxSeq, seed)
	}
	return alisa.PoissonTrace(n, rate, seed), nil
}

// workloadLabel names the request generator in table headings.
func workloadLabel(workload string) string {
	switch workload {
	case "conv":
		return "conversation"
	case "agent":
		return "agent-loop"
	case "rag":
		return "RAG"
	}
	return "Poisson"
}

// tableCols appends the prefix-cache columns to a table header when the
// cache is on; prefixRow does the same for a metric row.
func tableCols(prefixOn bool, cols ...string) []string {
	if prefixOn {
		cols = append(cols, "hit%", "prefill tok")
	}
	return cols
}

func prefixRow(prefixOn bool, res *alisa.ServeResult, cells ...string) []string {
	if prefixOn {
		cells = append(cells,
			fmt.Sprintf("%.0f%%", res.PrefixHitRate()*100),
			fmt.Sprintf("%d", res.PrefillTokens))
	}
	return cells
}

// runCells executes a grid's cells on the bounded worker pool, storing
// each outcome at its index so tables render in grid order regardless
// of completion order.
func runCells[R any](ctx context.Context, cells, parallel int,
	run func(context.Context, int) (R, error)) (results []R, errs []error, started []bool) {
	results = make([]R, cells)
	errs = make([]error, cells)
	started = make([]bool, cells)
	_ = grid.Run(ctx, cells, parallel, func(cellCtx context.Context, c int) {
		started[c] = true
		results[c], errs[c] = run(cellCtx, c)
	})
	return results, errs, started
}

// classifyCell folds one cell's outcome into either an error to render
// as an error row, or a label suffix — empty for a healthy cell, the
// partial-progress note for a cell cancelled mid-run (the only run
// error that carries metrics: interrupted runs report over the requests
// that completed; cells that finished before the cancel keep their
// plain label).
func classifyCell[R *alisa.ServeResult | *alisa.ClusterResult](compileErr error, started bool, res R, runErr error,
	interrupted bool, n int) (suffix string, rowErr error) {
	switch {
	case compileErr != nil:
		return "", compileErr
	case !started:
		return "", errors.New("skipped: cancelled before start")
	case runErr != nil && !(res != nil && interrupted):
		return "", runErr
	case runErr != nil:
		completed := 0
		switch r := any(res).(type) {
		case *alisa.ServeResult:
			completed = r.Completed
		case *alisa.ClusterResult:
			completed = r.Completed
		}
		return fmt.Sprintf(" (cancelled: %d/%d done)", completed, n), nil
	}
	return "", nil
}

// runClosedLoop runs the closed-loop latency-vs-concurrency grid: for
// every (client count × scheduler) cell, that many closed-loop clients
// issue the cell's requests — Engine.ServeClosedLoop for the plain
// workload, Engine.ServeScripted with conversation or agent scripts for
// the prefix-sharing ones — and each scheduler prints one table of
// serving metrics against concurrency.
func runClosedLoop(ctx context.Context, stdout io.Writer, f *flags, names []string,
	engines map[string]*alisa.Engine, compileErr map[string]error) error {
	// Scripted workloads issue whole per-client scripts instead of a
	// shared request budget: each client runs budget(clients) requests.
	budget := func(clients int) int {
		if f.workload == "" {
			return f.n
		}
		return max(f.n/clients, 1) * clients
	}
	results, errs, started := runCells(ctx, len(f.clients)*len(names), f.parallel, func(cellCtx context.Context, c int) (*alisa.ServeResult, error) {
		eng := engines[names[c%len(names)]]
		if eng == nil {
			return nil, nil // compile error renders from compileErr
		}
		clients := f.clients[c/len(names)]
		switch f.workload {
		case "conv":
			return eng.ServeScripted(cellCtx,
				alisa.NewConversationClients(clients, budget(clients)/clients, f.think, scriptMaxSeq, f.seed))
		case "agent":
			return eng.ServeScripted(cellCtx,
				alisa.NewAgentClients(clients, budget(clients)/clients, f.think, scriptMaxSeq, f.seed))
		}
		return eng.ServeClosedLoop(cellCtx, alisa.ClosedLoop{
			Clients:   clients,
			Requests:  f.n,
			ThinkTime: f.think,
			Seed:      f.seed,
		})
	})

	for si, name := range names {
		fmt.Fprintf(stdout, "## %s, closed loop (%s): %d requests, think %.2fs (seed %d) — %s\n\n",
			f.model, workloadLabel(f.workload), f.n, f.think, f.seed, name)
		tb := textfmt.NewTable(tableCols(f.prefixCache, "clients", "tput tok/s", "goodput", "SLO%",
			"TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "E2E p50", "preempt", "batch")...)
		for ci, clients := range f.clients {
			c := ci*len(names) + si
			res := results[c]
			label := fmt.Sprintf("%d", clients)
			suffix, rowErr := classifyCell(compileErr[name], started[c], res, errs[c], ctx.Err() != nil, budget(clients))
			if rowErr != nil {
				addErrorRow(tb, label, rowErr)
				continue
			}
			tb.AddRow(prefixRow(f.prefixCache, res,
				label+suffix,
				fmt.Sprintf("%.1f", res.Throughput),
				fmt.Sprintf("%.1f", res.Goodput),
				fmt.Sprintf("%.0f%%", res.SLOAttainment*100),
				textfmt.Seconds(res.TTFT.P50), textfmt.Seconds(res.TTFT.P99),
				textfmt.Seconds(res.TPOT.P50), textfmt.Seconds(res.TPOT.P99),
				textfmt.Seconds(res.E2E.P50),
				fmt.Sprintf("%d", res.Preemptions),
				fmt.Sprintf("%.1f", res.MeanBatch))...)
		}
		fmt.Fprintln(stdout, tb.String())
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stdout, "(closed-loop run cancelled; unstarted cells were skipped)")
	}
	return nil
}

// addErrorRow renders a cell that produced no metrics — compile failure,
// run error, or a cancelled-before-start cell — through the same column
// layout as the metric rows (AddRow pads the remaining columns).
func addErrorRow(tb *textfmt.Table, label string, err error) {
	tb.AddRow(label, "error: "+err.Error())
}

// progressObserver streams serving events live to stderr, prefixed with
// the scheduler under test.
func progressObserver(sched string) alisa.Observer {
	return alisa.Observer{
		Admission: func(e alisa.AdmissionEvent) {
			fmt.Fprintf(os.Stderr, "[%s] t=%-10s admit   r%-3d in=%d out=%d wait=%s batch=%d\n",
				sched, textfmt.Seconds(e.Clock), e.Request, e.Input, e.Output,
				textfmt.Seconds(e.Wait), e.Batch)
		},
		Preemption: func(e alisa.PreemptionEvent) {
			fmt.Fprintf(os.Stderr, "[%s] t=%-10s preempt r%-3d gen=%d\n",
				sched, textfmt.Seconds(e.Clock), e.Request, e.Generated)
		},
		Completion: func(e alisa.CompletionEvent) {
			fmt.Fprintf(os.Stderr, "[%s] t=%-10s finish  r%-3d ttft=%s tpot=%s\n",
				sched, textfmt.Seconds(e.Clock), e.Request,
				textfmt.Seconds(e.TTFT), textfmt.Seconds(e.TPOT))
		},
	}
}
