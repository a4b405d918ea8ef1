package alisa

import (
	"context"
	"reflect"
	"testing"
)

// TestSessionFork pins the public fork contract: a fork that takes the
// same future as its parent reproduces the straight-line run bit for bit
// — final ServeResult, observer stream, and the rolling window at the
// branch point — while a fork pushed extra work diverges without disturbing
// either the parent or its sibling.
func TestSessionFork(t *testing.T) {
	trace := PoissonTrace(16, 3.0, 21)
	ctx := context.Background()
	open := func() (*Session, *Engine) {
		eng, err := New("opt-6.7b", sessionEngineOpts("alisa")...)
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return s, eng
	}

	straightSess, _ := open()
	straightRec := &recordingObserver{}
	if err := straightSess.Subscribe(straightRec.observer()); err != nil {
		t.Fatal(err)
	}
	for _, r := range trace {
		if err := straightSess.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	straight, err := straightSess.Close()
	if err != nil {
		t.Fatal(err)
	}

	s, _ := open()
	rec := &recordingObserver{}
	if err := s.Subscribe(rec.observer()); err != nil {
		t.Fatal(err)
	}
	for _, r := range trace {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if s.InFlight() == 0 {
		t.Fatal("fork point has no in-flight sequences; nothing exercised")
	}

	same, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// The fork's recorder starts from the parent's events up to the
	// branch point, so a same-future fork must end with the straight
	// run's whole stream.
	sameRec := &recordingObserver{events: append([]string(nil), rec.events...)}
	if err := same.Subscribe(sameRec.observer()); err != nil {
		t.Fatal(err)
	}
	diverged, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Snapshot(), same.Snapshot()) {
		t.Error("fork's rolling window diverged from parent at the branch point")
	}
	if err := diverged.Push(Request{ID: 9001, Arrival: diverged.Clock(), Input: 64, Output: 8}); err != nil {
		t.Fatal(err)
	}

	if got, err := same.Close(); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(got, straight) {
		t.Errorf("same-future fork diverged from straight-line run:\nfork:     %+v\nstraight: %+v", got, straight)
	}
	if !reflect.DeepEqual(sameRec.events, straightRec.events) {
		t.Error("same-future fork's observer stream diverged from the straight-line run's")
	}
	if got, err := diverged.Close(); err != nil {
		t.Fatal(err)
	} else if got.Completed != straight.Completed+1 {
		t.Errorf("diverged fork completed %d, want %d", got.Completed, straight.Completed+1)
	}
	if got, err := s.Close(); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(got, straight) {
		t.Error("forking perturbed the parent session")
	}
	if !reflect.DeepEqual(rec.events, straightRec.events) {
		t.Error("forking perturbed the parent session's observer stream")
	}

	if _, err := s.Fork(); err == nil {
		t.Fatal("fork of a closed session succeeded")
	}
}

// TestWithExactMetricsScaleServe pins the engine-level threshold option:
// a scale-mode Serve reports no per-request records but identical
// order-independent aggregates, and the default threshold keeps ordinary
// traces on the exact path.
func TestWithExactMetricsScaleServe(t *testing.T) {
	trace := PoissonTrace(24, 3.0, 9)
	ctx := context.Background()
	exactEng, err := New("opt-6.7b", WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := exactEng.Serve(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Requests == nil {
		t.Fatal("default threshold pushed a 24-request trace into scale mode")
	}

	scaleEng, err := New("opt-6.7b", WithMaxBatch(8), WithExactMetrics(-1))
	if err != nil {
		t.Fatal(err)
	}
	scale, err := scaleEng.Serve(ctx, trace)
	if err != nil {
		t.Fatal(err)
	}
	if scale.Requests != nil {
		t.Fatalf("scale mode retained %d records", len(scale.Requests))
	}
	if scale.Completed != exact.Completed || scale.Makespan != exact.Makespan ||
		scale.Throughput != exact.Throughput || scale.Goodput != exact.Goodput ||
		scale.SLOAttainment != exact.SLOAttainment || scale.Preemptions != exact.Preemptions {
		t.Fatalf("scale-mode aggregates drifted:\nexact: %+v\nscale: %+v", exact, scale)
	}
}
