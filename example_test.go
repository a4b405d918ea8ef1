package alisa_test

import (
	"context"
	"fmt"
	"log"

	alisa "repro"
	"repro/internal/sched"
)

// greedyGPU is a user-defined KV placement policy: keep every token's KV
// on the GPU, with no offloading or deletion. It implements
// sched.Scheduler (placement planning) and sched.Releaser
// (free-on-completion, required by Engine.Serve).
type greedyGPU struct{ tokens int }

func (g *greedyGPU) Name() string { return "greedy-gpu" }

func (g *greedyGPU) Init(ctx *sched.Context) error {
	g.tokens = 0
	for i := 0; i < ctx.Input; i++ {
		if err := ctx.Sys.AllocGPU(ctx.TokenBytes()); err != nil {
			return err
		}
		g.tokens++
	}
	return nil
}

func (g *greedyGPU) Step(ctx *sched.Context, j int) (sched.StepPlan, error) {
	if err := ctx.Sys.AllocGPU(ctx.TokenBytes()); err != nil {
		return sched.StepPlan{}, err
	}
	g.tokens++
	return sched.StepPlan{Attended: g.tokens}, nil
}

func (g *greedyGPU) Release(ctx *sched.Context) {
	ctx.Sys.FreeGPU(int64(g.tokens) * ctx.TokenBytes())
	g.tokens = 0
}

// ExampleEngine_session drives the streaming serving surface: open a
// session, push requests onto the simulated timeline (a burst now, one
// arriving later), let the loop drain, and read both the online window
// and the final result. Serve is this same loop seeded with a whole
// trace; a session lets traffic arrive while the simulation runs.
func ExampleEngine_session() {
	eng, err := alisa.New("opt-6.7b", alisa.WithKVSparsity(0.8), alisa.WithKVBits(8))
	if err != nil {
		log.Fatal(err)
	}
	s, err := eng.Open(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Push(alisa.Request{ID: i, Arrival: 0, Input: 64, Output: 32}); err != nil {
			log.Fatal(err)
		}
	}
	// A request pushed with a future arrival: the session jumps its
	// clock to it once the burst drains.
	if err := s.Push(alisa.Request{ID: 4, Arrival: 60, Input: 64, Output: 32}); err != nil {
		log.Fatal(err)
	}
	res, err := s.Close() // graceful drain: everything pushed completes
	if err != nil {
		log.Fatal(err)
	}
	snap := s.Snapshot()
	fmt.Printf("completed %d requests, window holds %d, SLO attainment %.0f%%\n",
		len(res.Requests), snap.Count, res.SLOAttainment*100)
	// Output: completed 5 requests, window holds 5, SLO attainment 100%
}

// ExampleEngine_customScheduler registers a scheduler through the open
// registry and compiles an engine onto it: the custom policy flows
// through Simulate (and Serve) exactly like a built-in.
func ExampleEngine_customScheduler() {
	if err := sched.Register("greedy-gpu", func() sched.Scheduler { return &greedyGPU{} }); err != nil {
		log.Fatal(err)
	}

	eng, err := alisa.New("opt-6.7b", alisa.WithScheduler("greedy-gpu"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Simulate(context.Background(), alisa.Shape{Batch: 4, Input: 32, Output: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s generated %d tokens\n", res.Scheduler, res.Tokens)
	// Output: greedy-gpu generated 64 tokens
}
