package alisa

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestServeManyMatchesSerialServe pins the parallel runner's contract:
// results land at their trace's index and are bit-identical to calling
// Serve once per trace serially.
func TestServeManyMatchesSerialServe(t *testing.T) {
	eng, err := New("opt-6.7b",
		WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	traces := []TraceWorkload{
		PoissonTrace(12, 1, 3),
		PoissonTrace(12, 3, 3),
		PoissonTrace(12, 6, 3),
		UniformTrace(6, 0.25, 96, 48),
	}
	ctx := context.Background()

	want := make([]*ServeResult, len(traces))
	for i, tr := range traces {
		if want[i], err = eng.Serve(ctx, tr); err != nil {
			t.Fatalf("serial cell %d: %v", i, err)
		}
	}

	// Several rounds: completion order varies, results must not.
	for round := 0; round < 3; round++ {
		got, err := eng.ServeMany(ctx, traces)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range traces {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d cell %d diverged from serial Serve", round, i)
			}
		}
	}
}

// TestServeManyValidation pins the up-front trace checks.
func TestServeManyValidation(t *testing.T) {
	eng, err := New("opt-6.7b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var cfgErr *ConfigError
	if _, err := eng.ServeMany(ctx, nil); !errors.As(err, &cfgErr) || cfgErr.Field != "Trace" {
		t.Fatalf("empty trace list: err = %v", err)
	}
	if _, err := eng.ServeMany(ctx, []TraceWorkload{PoissonTrace(4, 1, 1), nil}); !errors.As(err, &cfgErr) || cfgErr.Field != "Trace" {
		t.Fatalf("nil cell trace: err = %v", err)
	}
}

// TestServeManyCancellation cancels up front: no cell may start, and the
// context error must surface.
func TestServeManyCancellation(t *testing.T) {
	eng, err := New("opt-6.7b")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eng.ServeMany(ctx, []TraceWorkload{PoissonTrace(4, 1, 1), PoissonTrace(4, 2, 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r != nil {
			t.Fatalf("cell %d ran despite pre-cancelled context", i)
		}
	}
}

// countingObserver counts completions without internal locking; ServeMany
// must serialize delivery so this stays race-free under -race.
type countingObserver struct{ completions int }

func (c *countingObserver) observer() Observer {
	return Observer{Completion: func(CompletionEvent) { c.completions++ }}
}

// TestServeManyObserverSerialized checks every cell's events reach the
// shared observer exactly once, with delivery serialized by ServeMany.
func TestServeManyObserverSerialized(t *testing.T) {
	obs := &countingObserver{}
	eng, err := New("opt-6.7b", WithObserver(obs.observer()))
	if err != nil {
		t.Fatal(err)
	}
	traces := []TraceWorkload{
		PoissonTrace(8, 2, 1), PoissonTrace(8, 4, 2), PoissonTrace(8, 6, 3),
	}
	if _, err := eng.ServeMany(context.Background(), traces); err != nil {
		t.Fatal(err)
	}
	if want := 3 * 8; obs.completions != want {
		t.Fatalf("shared observer saw %d completions, want %d", obs.completions, want)
	}
}

// TestSynchronizedObserverShared exercises the public wrapper across
// engines run concurrently by hand.
func TestSynchronizedObserverShared(t *testing.T) {
	obs := &countingObserver{}
	shared := SynchronizedObserver(obs.observer())
	var wg sync.WaitGroup
	for _, name := range []string{"alisa", "vllm"} {
		opts := []Option{WithScheduler(name), WithObserver(shared)}
		if name == "alisa" {
			opts = append(opts, WithKVSparsity(0.8), WithKVBits(8))
		}
		eng, err := New("opt-6.7b", opts...)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Serve(context.Background(), PoissonTrace(6, 2, 9)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if want := 2 * 6; obs.completions != want {
		t.Fatalf("shared observer saw %d completions, want %d", obs.completions, want)
	}
	if SynchronizedObserver(Observer{}).Completion != nil {
		t.Fatal("an unset callback must wrap to nil")
	}
}
