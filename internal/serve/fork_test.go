package serve

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/events"
	"repro/internal/workload"
)

// forkConfig is a heterogeneous-arrival workload for the fork tests.
func forkConfig(name string) Config {
	cfg := lightConfig(name)
	cfg.Trace = workload.PoissonTrace(16, 2.0, 7)
	if name == "alisa" {
		cfg.KVSparsity = 0.8
		cfg.KVBits = 8
	}
	return cfg
}

// advanceTurns advances up to k turns, reporting whether the loop still
// had work at every step.
func advanceTurns(t *testing.T, l *Loop, k int) bool {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < k; i++ {
		progressed, err := l.Advance(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			return false
		}
	}
	return true
}

func drainResult(t *testing.T, l *Loop) *Result {
	t.Helper()
	if err := l.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return l.Finalize()
}

// recordedLoop builds a loop over cfg with a fresh recorder attached.
func recordedLoop(t *testing.T, cfg Config) (*Loop, *recorder) {
	t.Helper()
	rec := &recorder{}
	cfg.Observer = rec.observer()
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

// forkAt advances a recorded loop over cfg k turns and forks it. The
// fork's recorder starts with the original's events up to the snapshot,
// so after draining it holds the whole stream a straight-line run would.
func forkAt(t *testing.T, cfg Config, k int) (orig *Loop, origRec *recorder, fork *Loop, forkRec *recorder) {
	t.Helper()
	orig, origRec = recordedLoop(t, cfg)
	advanceTurns(t, orig, k)
	forkRec = &recorder{events: append([]string(nil), origRec.events...)}
	fork, err := orig.Fork(forkRec.observer())
	if err != nil {
		t.Fatal(err)
	}
	return orig, origRec, fork, forkRec
}

// TestForkDeterminism is the tentpole contract: fork-then-advance is
// bit-identical to straight-line advance — Result, metrics, and observer
// stream — at every snapshot depth, for every store-backed and plain
// scheduler, and the snapshot leaves the original run unperturbed.
func TestForkDeterminism(t *testing.T) {
	for _, name := range []string{"alisa", "flexgen", "vllm", "gpu-only"} {
		t.Run(name, func(t *testing.T) {
			sl, straightRec := recordedLoop(t, forkConfig(name))
			straight := drainResult(t, sl)

			sawActive := false
			for _, k := range []int{1, 5, 12} {
				l, rec, fork, forkRec := forkAt(t, forkConfig(name), k)
				if l.Active() > 0 {
					sawActive = true
				}
				if got := drainResult(t, fork); !reflect.DeepEqual(got, straight) {
					t.Errorf("turn %d: fork-then-advance diverged from straight-line:\nfork:     %+v\nstraight: %+v", k, got, straight)
				}
				checkStream(t, fmt.Sprintf("turn %d fork", k), straightRec.events, forkRec.events)
				if got := drainResult(t, l); !reflect.DeepEqual(got, straight) {
					t.Errorf("turn %d: snapshot perturbed the original run", k)
				}
				checkStream(t, fmt.Sprintf("turn %d original", k), straightRec.events, rec.events)
			}
			if !sawActive {
				t.Fatal("no snapshot point caught active sequences; scheduler cloning was never exercised")
			}
		})
	}
}

// TestForkScaleMode pins the same fork-then-advance ≡ straight-line
// contract with the streaming digests live: the cloned sketch state must
// continue identically.
func TestForkScaleMode(t *testing.T) {
	cfg := forkConfig("alisa")
	cfg.ExactMetrics = -1
	sl, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight := drainResult(t, sl)
	if straight.Requests != nil {
		t.Fatal("scale-mode run retained per-request records")
	}

	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	advanceTurns(t, l, 8)
	fork, err := l.Fork(events.Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drainResult(t, fork); !reflect.DeepEqual(got, straight) {
		t.Errorf("scale-mode fork diverged:\nfork:     %+v\nstraight: %+v", got, straight)
	}
	if got := drainResult(t, l); !reflect.DeepEqual(got, straight) {
		t.Error("scale-mode snapshot perturbed the original run")
	}
}

// TestForkDivergentFutures exercises the reason Fork exists: multiple
// independent continuations from one loop state, each free to take a
// different future. The undisturbed fork must still match the
// straight-line run exactly while its sibling diverges.
func TestForkDivergentFutures(t *testing.T) {
	cfg := forkConfig("vllm")
	sl, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	straight := drainResult(t, sl)

	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	advanceTurns(t, l, 6)
	base, err := l.Fork(events.Observer{})
	if err != nil {
		t.Fatal(err)
	}
	extra, err := l.Fork(events.Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := extra.Inject(workload.Request{ID: 9001, Arrival: extra.Clock(), Input: 64, Output: 8}); err != nil {
		t.Fatal(err)
	}

	if got := drainResult(t, base); !reflect.DeepEqual(got, straight) {
		t.Errorf("undisturbed fork diverged from straight-line:\nfork:     %+v\nstraight: %+v", got, straight)
	}
	if got := drainResult(t, extra); got.Completed != straight.Completed+1 {
		t.Errorf("diverged fork completed %d requests, want %d", got.Completed, straight.Completed+1)
	}
	if got := drainResult(t, l); !reflect.DeepEqual(got, straight) {
		t.Error("forking perturbed the original run")
	}
}

// TestForkGates pins the failure modes: a finalized loop cannot be
// forked.
func TestForkGates(t *testing.T) {
	l, err := NewLoop(forkConfig("gpu-only"))
	if err != nil {
		t.Fatal(err)
	}
	drainResult(t, l)
	if _, err := l.Fork(events.Observer{}); err == nil {
		t.Fatal("fork of a finalized loop succeeded")
	}
}
