// live_serving demonstrates the streaming serving surface: an
// interactive alisa.Session driven push-by-push instead of replaying a
// pre-materialized trace.
//
// Part 1 opens a session, subscribes to per-request lifecycle events
// (admission → first token → completion), pushes a burst of requests
// plus a straggler that arrives later, and polls the rolling metrics
// window between turns — the online tail-latency view a monitoring loop
// would read while traffic is still in flight.
//
// Part 2 runs the workload regime a static trace cannot express at all:
// closed-loop clients that issue their next request only when the
// previous one completes, producing a latency-vs-concurrency table
// (the table EXPERIMENTS.md reports).
package main

import (
	"context"
	"fmt"
	"log"

	alisa "repro"
	"repro/internal/textfmt"
)

func main() {
	ctx := context.Background()

	fmt.Println("== part 1: interactive session — push, advance, snapshot")
	fmt.Println()
	eng, err := alisa.New("opt-6.7b",
		alisa.WithKVSparsity(0.8), alisa.WithKVBits(8),
		alisa.WithMaxBatch(8), alisa.WithMetricsWindow(16))
	if err != nil {
		log.Fatal(err)
	}
	s, err := eng.Open(ctx)
	if err != nil {
		log.Fatal(err)
	}
	// Lifecycle events stream inline as the simulation advances.
	err = s.Subscribe(alisa.Observer{
		Admission: func(e alisa.AdmissionEvent) {
			fmt.Printf("  t=%-9s admit  r%-2d in=%-4d out=%-3d batch=%d\n",
				textfmt.Seconds(e.Clock), e.Request, e.Input, e.Output, e.Batch)
		},
		Completion: func(e alisa.CompletionEvent) {
			fmt.Printf("  t=%-9s finish r%-2d ttft=%s tpot=%s\n",
				textfmt.Seconds(e.Clock), e.Request, textfmt.Seconds(e.TTFT), textfmt.Seconds(e.TPOT))
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A burst at t=0 plus a straggler pushed up front with a future
	// arrival — the session jumps its clock to it when the burst drains.
	for i := 0; i < 6; i++ {
		if err := s.Push(alisa.Request{ID: i, Arrival: 0, Input: 128, Output: 48}); err != nil {
			log.Fatal(err)
		}
	}
	if err := s.Push(alisa.Request{ID: 6, Arrival: 30, Input: 512, Output: 64}); err != nil {
		log.Fatal(err)
	}

	turns := 0
	for {
		progressed, err := s.Advance()
		if err != nil {
			log.Fatal(err)
		}
		if !progressed {
			break
		}
		turns++
		if turns%24 == 0 {
			if snap := s.Snapshot(); snap.Count > 0 {
				fmt.Printf("  -- window after %d turns: %d done, TTFT p99 %s, TPOT p99 %s, SLO %.0f%%\n",
					turns, snap.Count, textfmt.Seconds(snap.TTFT.P99), textfmt.Seconds(snap.TPOT.P99), snap.SLOAttainment*100)
			}
		}
	}
	res, err := s.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  closed after %d turns: %d requests, throughput %.1f tok/s, TTFT p99 %s\n\n",
		turns, len(res.Requests), res.Throughput, textfmt.Seconds(res.TTFT.P99))

	fmt.Println("== part 2: closed-loop clients — latency vs concurrency")
	fmt.Println()
	tb := textfmt.NewTable("clients", "tput tok/s", "TTFT p50", "TTFT p99", "TPOT p99", "E2E p50", "batch")
	for _, clients := range []int{1, 2, 4, 8, 16} {
		r, err := eng.ServeClosedLoop(ctx, alisa.ClosedLoop{
			Clients: clients, Requests: 48, ThinkTime: 0.25, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		tb.AddRow(fmt.Sprint(clients),
			fmt.Sprintf("%.1f", r.Throughput),
			textfmt.Seconds(r.TTFT.P50), textfmt.Seconds(r.TTFT.P99),
			textfmt.Seconds(r.TPOT.P99), textfmt.Seconds(r.E2E.P50),
			fmt.Sprintf("%.1f", r.MeanBatch))
	}
	fmt.Println(tb.String())
	fmt.Println("offered load adapts to system speed: throughput rises with concurrency")
	fmt.Println("until the decode batch saturates, then latency absorbs the pressure.")
}
