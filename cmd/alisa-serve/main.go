// Command alisa-serve runs the continuous-batching serving simulator on a
// Poisson arrival trace with heterogeneous request shapes and compares KV
// placement policies on serving metrics: TTFT, TPOT, tail latency, and
// goodput.
//
// Usage:
//
//	alisa-serve                                  # default comparison
//	alisa-serve -model opt-6.7b -rate 3 -n 48    # one operating point
//	alisa-serve -sched alisa,vllm -rate 4
//	alisa-serve -sweep 0.5,1,2,4,8               # load sweep: throughput
//	                                             # and goodput vs offered
//	                                             # load per scheduler
//	alisa-serve -sweep 1,2,4,8 -parallel 0       # sweep cells run
//	                                             # concurrently (0 =
//	                                             # GOMAXPROCS workers)
//	alisa-serve -progress                        # live admit/preempt/finish
//	                                             # events on stderr
//	alisa-serve -closed-loop 1,2,4,8 -think 0.5  # closed-loop clients:
//	                                             # latency vs concurrency
//	alisa-serve -prefix-cache -workload conv     # multi-turn conversations
//	                                             # with block-granular
//	                                             # prefix KV sharing
//	alisa-serve -prefix-cache -workload agent \
//	            -closed-loop 2,4                 # agent loops sharing a
//	                                             # tool preamble
//
// The baselines run dense FP16 KV; ALISA runs at -sparsity / -bits
// (paper headline: 0.8 / INT8), mirroring the lockstep evaluation.
//
// -workload switches the request generator from the plain Poisson trace
// to one of the prefix-sharing shapes: "conv" (multi-turn conversations
// whose turns replay growing histories; open or closed loop), "agent"
// (tool-calling loops sharing a common preamble; closed loop only), or
// "rag" (retrieval prompts over a popularity-skewed document set; open
// loop only). With -prefix-cache the engines share block-aligned prompt
// prefixes copy-on-write across requests, and the tables grow hit-rate
// and prefilled-token columns.
//
// -closed-loop switches the workload regime: instead of replaying a
// Poisson arrival trace (open loop, offered load fixed), each of N
// concurrent clients issues a request, waits for its completion, thinks
// (-think, exponential), and issues the next — the feedback regime where
// offered load adapts to system speed, built on the streaming
// alisa.Session API. The comma-separated values are client counts; -n
// is the total request budget per cell, and the resulting table is
// latency versus concurrency per scheduler.
//
// Each scheduler's engine is compiled once and reused across every sweep
// rate. With -parallel the (scheduler × rate) cells execute concurrently
// on a bounded worker pool; every cell is the same single-goroutine
// deterministic simulation, so the tables are identical to a serial run
// regardless of completion order. Ctrl-C cancels the sweep: in-flight
// cells report metrics over the requests that completed, unstarted cells
// are skipped.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	alisa "repro"
	"repro/internal/grid"
	"repro/internal/textfmt"
)

func main() {
	modelName := flag.String("model", "opt-6.7b", "model catalog name")
	profile := flag.String("profile", "", "hardware profile (empty = paper pairing)")
	scheds := flag.String("sched", "alisa,flexgen,vllm,hf-accelerate,gpu-only", "comma-separated schedulers")
	n := flag.Int("n", 48, "requests in the trace")
	rate := flag.Float64("rate", 2, "mean arrival rate, requests/second")
	seed := flag.Int64("seed", 1, "trace seed")
	sparsity := flag.Float64("sparsity", 0.8, "ALISA KV sparsity")
	bits := flag.Int("bits", 8, "ALISA KV bits")
	maxBatch := flag.Int("max-batch", 16, "decode batch cap")
	sloTTFT := flag.Float64("slo-ttft", 10, "TTFT SLO seconds (goodput)")
	sloTPOT := flag.Float64("slo-tpot", 0.5, "TPOT SLO seconds/token (goodput)")
	sweep := flag.String("sweep", "", "comma-separated arrival rates for a load sweep")
	closedLoop := flag.String("closed-loop", "", "comma-separated client counts for a closed-loop latency-vs-concurrency run")
	think := flag.Float64("think", 0.5, "mean client think time in seconds for -closed-loop (exponential)")
	parallel := flag.Int("parallel", 1, "concurrent sweep cells (0 = GOMAXPROCS workers, 1 = serial)")
	progress := flag.Bool("progress", false, "stream admission/preemption/completion events to stderr")
	prefixCache := flag.Bool("prefix-cache", false, "share block-aligned prompt prefixes copy-on-write across requests")
	prefixBlock := flag.Int("prefix-block", 16, "prefix cache block size in tokens (with -prefix-cache)")
	workloadName := flag.String("workload", "", "prefix-sharing workload: conv, agent (closed loop only), or rag (open loop only); empty = plain Poisson")
	flag.Parse()

	if err := validateFlags(*n, *parallel, *think, *sweep, *closedLoop, *workloadName, *prefixCache, *prefixBlock); err != nil {
		fatal(err)
	}
	names := strings.Split(*scheds, ",")
	rates := []float64{*rate}
	if *sweep != "" {
		rates = nil
		for _, f := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fatal(fmt.Errorf("bad -sweep entry %q: %w", f, err))
			}
			rates = append(rates, v)
		}
	}
	for _, r := range rates {
		if r <= 0 {
			fatal(fmt.Errorf("arrival rate must be positive, got %v", r))
		}
	}
	var clientCounts []int
	if *closedLoop != "" {
		for _, f := range strings.Split(*closedLoop, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v <= 0 {
				fatal(fmt.Errorf("bad -closed-loop entry %q: want a positive client count", f))
			}
			clientCounts = append(clientCounts, v)
		}
	}

	// Compile one engine per scheduler up front; the sweep below reuses
	// them across every offered-load point. A scheduler that fails to
	// compile (unknown name, bad option) renders as an error row in every
	// table instead of aborting the comparison.
	engines := make(map[string]*alisa.Engine, len(names))
	compileErr := make(map[string]error, len(names))
	for i, name := range names {
		name = strings.TrimSpace(name)
		names[i] = name
		opts := []alisa.Option{
			alisa.WithScheduler(name),
			alisa.WithMaxBatch(*maxBatch),
			alisa.WithSLO(*sloTTFT, *sloTPOT),
		}
		if *profile != "" {
			opts = append(opts, alisa.WithProfile(*profile))
		}
		if name == "alisa" {
			opts = append(opts, alisa.WithKVSparsity(*sparsity), alisa.WithKVBits(*bits))
		}
		if *prefixCache {
			opts = append(opts, alisa.WithPrefixCache(alisa.PrefixCache{BlockTokens: *prefixBlock}))
		}
		if *progress {
			// One observer instance serves every cell of this scheduler;
			// with -parallel those cells run concurrently, so delivery is
			// serialized.
			opts = append(opts, alisa.WithObserver(alisa.SynchronizedObserver(progressObserver(name))))
		}
		eng, err := alisa.New(*modelName, opts...)
		if err != nil {
			compileErr[name] = err
			continue
		}
		engines[name] = eng
	}

	// Ctrl-C cancels the sweep; computed and in-flight cells still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if len(clientCounts) > 0 {
		runClosedLoop(ctx, names, engines, compileErr, clientCounts, *n, *think, *seed, *parallel,
			*modelName, *workloadName, *prefixCache)
		return
	}

	// The sweep grid: cell (ri, si) = rates[ri] × names[si], results in
	// index-addressed storage so the tables render in deterministic order
	// no matter which worker finishes a cell first.
	traces := make([]alisa.TraceWorkload, len(rates))
	for ri, r := range rates {
		tr, err := makeTrace(*workloadName, *n, r, *seed)
		if err != nil {
			fatal(err)
		}
		traces[ri] = tr
	}
	cells := len(rates) * len(names)
	results, errs, started := runCells(ctx, cells, *parallel, func(cellCtx context.Context, c int) (*alisa.ServeResult, error) {
		eng := engines[names[c%len(names)]]
		if eng == nil {
			return nil, nil // compile error renders from compileErr
		}
		return eng.Serve(cellCtx, traces[c/len(names)])
	})

	for ri := range rates {
		fmt.Printf("## %s, %d %s requests, %.2f req/s (seed %d)\n\n",
			*modelName, len(traces[ri]), workloadLabel(*workloadName), rates[ri], *seed)
		tb := textfmt.NewTable(tableCols(*prefixCache, "scheduler", "tput tok/s", "goodput", "SLO%",
			"TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "preempt", "batch")...)
		for si, name := range names {
			c := ri*len(names) + si
			res := results[c]
			suffix, rowErr := classifyCell(compileErr[name], started[c], res, errs[c], ctx.Err() != nil, len(traces[ri]))
			if rowErr != nil {
				addErrorRow(tb, name, rowErr)
				continue
			}
			tb.AddRow(prefixRow(*prefixCache, res,
				name+suffix,
				fmt.Sprintf("%.1f", res.Throughput),
				fmt.Sprintf("%.1f", res.Goodput),
				fmt.Sprintf("%.0f%%", res.SLOAttainment*100),
				textfmt.Seconds(res.TTFT.P50), textfmt.Seconds(res.TTFT.P99),
				textfmt.Seconds(res.TPOT.P50), textfmt.Seconds(res.TPOT.P99),
				fmt.Sprintf("%d", res.Preemptions),
				fmt.Sprintf("%.1f", res.MeanBatch))...)
		}
		fmt.Println(tb.String())
	}
	if ctx.Err() != nil {
		fmt.Println("(sweep cancelled; unstarted cells were skipped)")
	}
}

// validateFlags rejects inconsistent serve parameters before any engine
// compiles; table-tested in main_test.go.
func validateFlags(n, parallel int, think float64, sweep, closedLoop, workload string,
	prefixCache bool, prefixBlock int) error {
	if n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", n)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be ≥ 0, got %d", parallel)
	}
	if sweep != "" && closedLoop != "" {
		return fmt.Errorf("-sweep and -closed-loop are different load regimes; pick one")
	}
	if think < 0 {
		return fmt.Errorf("-think must be ≥ 0, got %v", think)
	}
	switch workload {
	case "", "conv":
	case "agent":
		if closedLoop == "" {
			return fmt.Errorf("-workload agent is closed-loop only; add -closed-loop")
		}
	case "rag":
		if closedLoop != "" {
			return fmt.Errorf("-workload rag is open-loop only; drop -closed-loop")
		}
	default:
		return fmt.Errorf("unknown -workload %q (want conv, agent, or rag)", workload)
	}
	if prefixCache && prefixBlock <= 0 {
		return fmt.Errorf("-prefix-block must be positive, got %d", prefixBlock)
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

// runCells executes one scheduler-grid's cells on the bounded worker
// pool, storing each outcome at its deterministic index so tables render
// in grid order regardless of completion order.
func runCells(ctx context.Context, cells, parallel int,
	run func(context.Context, int) (*alisa.ServeResult, error)) (results []*alisa.ServeResult, errs []error, started []bool) {
	results = make([]*alisa.ServeResult, cells)
	errs = make([]error, cells)
	started = make([]bool, cells)
	_ = grid.Run(ctx, cells, parallel, func(cellCtx context.Context, c int) {
		started[c] = true
		results[c], errs[c] = run(cellCtx, c)
	})
	return results, errs, started
}

// classifyCell folds one executed cell's outcome into either an error to
// render as an error row, or a label suffix — empty for a healthy cell,
// the partial-progress note for a cell cancelled mid-run (the only
// runErr that carries metrics: interrupted runs report over the
// requests that completed; cells that finished before Ctrl-C keep their
// plain label).
func classifyCell(compileErr error, started bool, res *alisa.ServeResult, runErr error,
	interrupted bool, n int) (suffix string, rowErr error) {
	switch {
	case compileErr != nil:
		return "", compileErr
	case !started:
		return "", fmt.Errorf("skipped: cancelled before start")
	case runErr != nil && !(res != nil && interrupted):
		return "", runErr
	case runErr != nil:
		return fmt.Sprintf(" (cancelled: %d/%d done)", res.Completed, n), nil
	}
	return "", nil
}

// runClosedLoop runs the closed-loop latency-vs-concurrency grid: for
// every (client count × scheduler) cell, n requests are issued by that
// many closed-loop clients — Engine.ServeClosedLoop for the plain
// workload, Engine.ServeScripted with conversation or agent scripts for
// the prefix-sharing ones — and each scheduler prints one table of
// serving metrics against concurrency.
// Cells run on the same bounded worker pool as the sweep; every cell is
// deterministic in the seed, so the tables are stable across -parallel
// settings.
func runClosedLoop(ctx context.Context, names []string, engines map[string]*alisa.Engine,
	compileErr map[string]error, clientCounts []int, n int, think float64, seed int64, parallel int,
	modelName, workload string, prefixOn bool) {
	// Scripted workloads issue whole per-client scripts instead of a
	// shared request budget: each client runs budget(clients) requests.
	budget := func(clients int) int {
		if workload == "" {
			return n
		}
		per := n / clients
		if per < 1 {
			per = 1
		}
		return per * clients
	}
	cells := len(clientCounts) * len(names)
	results, errs, started := runCells(ctx, cells, parallel, func(cellCtx context.Context, c int) (*alisa.ServeResult, error) {
		eng := engines[names[c%len(names)]]
		if eng == nil {
			return nil, nil // compile error renders from compileErr
		}
		clients := clientCounts[c/len(names)]
		switch workload {
		case "conv":
			return eng.ServeScripted(cellCtx,
				alisa.NewConversationClients(clients, budget(clients)/clients, think, scriptMaxSeq, seed))
		case "agent":
			return eng.ServeScripted(cellCtx,
				alisa.NewAgentClients(clients, budget(clients)/clients, think, scriptMaxSeq, seed))
		}
		return eng.ServeClosedLoop(cellCtx, alisa.ClosedLoop{
			Clients:   clients,
			Requests:  n,
			ThinkTime: think,
			Seed:      seed,
		})
	})

	for si, name := range names {
		fmt.Printf("## %s, closed loop (%s): %d requests, think %.2fs (seed %d) — %s\n\n",
			modelName, workloadLabel(workload), n, think, seed, name)
		tb := textfmt.NewTable(tableCols(prefixOn, "clients", "tput tok/s", "goodput", "SLO%",
			"TTFT p50", "TTFT p99", "TPOT p50", "TPOT p99", "E2E p50", "preempt", "batch")...)
		for ci, clients := range clientCounts {
			c := ci*len(names) + si
			res := results[c]
			label := fmt.Sprintf("%d", clients)
			suffix, rowErr := classifyCell(compileErr[name], started[c], res, errs[c], ctx.Err() != nil, budget(clients))
			if rowErr != nil {
				addErrorRow(tb, label, rowErr)
				continue
			}
			tb.AddRow(prefixRow(prefixOn, res,
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
		fmt.Println(tb.String())
	}
	if ctx.Err() != nil {
		fmt.Println("(closed-loop run cancelled; unstarted cells were skipped)")
	}
}

// addErrorRow renders a cell that produced no metrics — compile failure,
// run error, or a cancelled-before-start cell — through the same column
// layout as the metric rows (AddRow pads the remaining columns), for
// both the sweep and closed-loop tables.
func addErrorRow(tb *textfmt.Table, label string, err error) {
	tb.AddRow(label, "error: "+err.Error())
}

// progressObserver streams serving events live to stderr, prefixed with
// the scheduler under test.
func progressObserver(sched string) alisa.Observer {
	return alisa.ObserverFuncs{
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alisa-serve:", err)
	os.Exit(1)
}
