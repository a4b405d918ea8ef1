// Package grid is the bounded-worker executor behind sweep-style fan-out:
// Engine.ServeMany, `alisa serve -parallel`, and `alisa cluster
// -parallel` all run their (scheduler × load / router × load × fleet
// size) cells through Run, and Fig. 8 runs its (model × dataset) groups
// through it. Each cell is an index into caller-owned storage, so results
// land in deterministic positions no matter which worker finishes first —
// the cells themselves are single-goroutine deterministic computations,
// making the whole sweep reproducible under any worker count.
package grid

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes fn(ctx, i) for every i in [0, n) on at most workers
// concurrent goroutines; workers ≤ 0 selects GOMAXPROCS. With one worker
// (or one cell) the cells run inline on the caller's goroutine in index
// order, so a serial sweep behaves exactly as a plain loop.
//
// fn must write its result into caller-owned, index-addressed storage
// (distinct indices, so no locking is needed); Run never reorders or
// drops indices that started. When ctx is cancelled, cells that have not
// started are skipped — fn never runs for them — and Run returns
// ctx.Err() after in-flight cells wind down through their own
// cancellation paths (fn receives ctx for exactly that purpose).
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(ctx, i)
		}
		return ctx.Err()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(ctx, i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
