package serve

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runThroughLoop feeds cfg's trace through the step-driven core the way
// a streaming session does — empty loop, Inject every arrival, Drain —
// and finalizes.
func runThroughLoop(t *testing.T, cfg Config) *Result {
	t.Helper()
	trace := cfg.Trace
	cfg.Trace = nil
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatalf("NewLoop: %v", err)
	}
	for _, r := range trace {
		if err := l.Inject(r); err != nil {
			t.Fatalf("Inject r%d: %v", r.ID, err)
		}
	}
	if err := l.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return l.Finalize()
}

// TestLoopReplaysTraceBitIdentical is the core equivalence property of
// the step-driven redesign: for every registered servable scheduler,
// injecting a trace's arrivals into an empty Loop produces a Result —
// metrics and per-request records — and an observer stream bit-identical
// to Run replaying that trace.
func TestLoopReplaysTraceBitIdentical(t *testing.T) {
	for _, name := range sched.Registered() {
		if name == "deepspeed-zero" || name == "deepspeed" {
			continue // not servable: engine-wide weight streaming
		}
		t.Run(name, func(t *testing.T) {
			cfg := replayConfig(name)
			if name != "alisa" {
				cfg.KVSparsity, cfg.KVBits = 0, 16
			}
			want, wantStream := recordedRun(t, cfg)
			rec := &recorder{}
			cfg.Observer = rec.observer()
			got := runThroughLoop(t, cfg)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("loop-injected result diverged from Run:\nrun:  %+v\nloop: %+v", want, got)
			}
			checkStream(t, "loop-injected stream", wantStream, rec.events)
		})
	}
}

// TestLoopStreamingInject drives the streaming shape Run cannot express:
// requests pushed mid-run, after earlier work already completed, with
// out-of-order arrivals between pushes.
func TestLoopStreamingInject(t *testing.T) {
	cfg := lightConfig("alisa")
	cfg.Trace = nil
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if progressed, err := l.Advance(ctx); err != nil || progressed {
		t.Fatalf("empty loop advanced: %v %v", progressed, err)
	}

	// First wave.
	if err := l.Inject(workload.Request{ID: 0, Arrival: 0, Input: 64, Output: 16}); err != nil {
		t.Fatal(err)
	}
	for {
		progressed, err := l.Advance(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	mid := l.Clock()
	if mid <= 0 {
		t.Fatal("clock did not advance")
	}

	// Second wave, pushed only after the first completed: a future
	// arrival and then an earlier one — Inject must keep arrival order.
	if err := l.Inject(workload.Request{ID: 1, Arrival: mid + 2, Input: 64, Output: 8}); err != nil {
		t.Fatal(err)
	}
	if err := l.Inject(workload.Request{ID: 2, Arrival: mid + 1, Input: 64, Output: 8}); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 2 {
		t.Fatalf("pending %d, want 2", l.Pending())
	}
	if err := l.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	res := l.Finalize()
	if len(res.Requests) != 3 {
		t.Fatalf("completed %d of 3", len(res.Requests))
	}
	// Request 2 arrives first and must be admitted first.
	var r1, r2 RequestRecord
	for _, r := range res.Requests {
		switch r.ID {
		case 1:
			r1 = r
		case 2:
			r2 = r
		}
	}
	if r2.Admitted >= r1.Admitted {
		t.Fatalf("arrival order not honoured: r2 admitted %.6f, r1 %.6f", r2.Admitted, r1.Admitted)
	}
}

// TestIdleJumpLandsOnArrival pins the idle clock jump onto the next
// arrival. With the clock c under half the arrival b, c + (b − c) can
// round one ulp short of b; a loop that jumped by the difference found
// the head still in the future on an empty system and failed it as
// unservable.
func TestIdleJumpLandsOnArrival(t *testing.T) {
	cfg := lightConfig("vllm")
	cfg.Trace = nil
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := l.Inject(workload.Request{ID: 0, Input: 2, Output: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	c := l.Clock()
	b := c + math.Exp2(math.Ceil(math.Log2(c)))
	for i := 0; c+(b-c) >= b; i++ {
		if i == 1<<16 {
			t.Fatalf("no arrival above %v rounds short of itself", c)
		}
		b = math.Nextafter(b, math.Inf(1))
	}
	if err := l.Inject(workload.Request{ID: 1, Arrival: b, Input: 2, Output: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Drain(ctx); err != nil {
		t.Fatalf("idle jump from %v to arrival %v: %v", c, b, err)
	}
	if res := l.Finalize(); res.Completed != 2 {
		t.Fatalf("completed %d of 2 requests", res.Completed)
	}
}

// TestLoopInjectDuringAdmissionCallback pins the mid-admission
// injection hazard: an Inject fired from an Admission callback with an
// arrival EARLIER than the request being admitted must not claim the
// queue slot that admission is consuming. Before the head-pop reorder,
// this stranded the injected request behind the head (silently dropped)
// and admitted the in-flight request twice, double-counting its record.
func TestLoopInjectDuringAdmissionCallback(t *testing.T) {
	cfg := lightConfig("alisa") // uniform arrivals at 0.5 s spacing
	var l *Loop
	admitted := map[int]int{}
	completed := map[int]int{}
	injected := false
	cfg.Observer = events.Observer{
		Admission: func(e events.Admission) {
			admitted[e.Request]++
			// From request 2's admission (arrival 1.0), push a request
			// whose arrival 0.1 precedes every still-waiting arrival.
			if e.Request == 2 && !injected {
				injected = true
				if err := l.Inject(workload.Request{ID: 10, Arrival: 0.1, Input: 32, Output: 8}); err != nil {
					t.Errorf("mid-admission Inject: %v", err)
				}
			}
		},
		Completion: func(e events.Completion) { completed[e.Request]++ },
	}
	var err error
	l, err = NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := l.Finalize()
	if len(res.Requests) != 7 {
		t.Fatalf("completed %d of 7 requests (injected request dropped?)", len(res.Requests))
	}
	for id, n := range admitted {
		if n != 1 {
			t.Errorf("request %d admitted %d times", id, n)
		}
	}
	for id, n := range completed {
		if n != 1 {
			t.Errorf("request %d completed %d times", id, n)
		}
	}
	if completed[10] != 1 {
		t.Errorf("injected request never completed")
	}
}

// TestLoopInjectValidation covers the per-request checks that replace
// trace-level validation in streaming mode.
func TestLoopInjectValidation(t *testing.T) {
	cfg := lightConfig("alisa")
	cfg.Trace = nil
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Inject(workload.Request{ID: 0, Arrival: 0, Input: 64, Output: 16}); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		req  workload.Request
		want string
	}{
		{"duplicate ID", workload.Request{ID: 0, Arrival: 1, Input: 8, Output: 8}, "duplicate"},
		{"zero input", workload.Request{ID: 1, Arrival: 1, Input: 0, Output: 8}, "non-positive"},
		{"zero output", workload.Request{ID: 1, Arrival: 1, Input: 8, Output: 0}, "non-positive"},
		{"negative arrival", workload.Request{ID: 1, Arrival: -0.5, Input: 8, Output: 8}, "negative arrival"},
		{"exceeds max seq", workload.Request{ID: 1, Arrival: 1, Input: 4096, Output: 4096}, "exceeds max"},
	}
	for _, tc := range bad {
		err := l.Inject(tc.req)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if l.Pending() != 1 {
		t.Fatalf("rejected injections changed the queue: pending %d", l.Pending())
	}
	if err := l.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestLoopFinalizeGate pins the terminal state: after Finalize every
// transition fails, and Finalize stays idempotent.
func TestLoopFinalizeGate(t *testing.T) {
	cfg := lightConfig("vllm")
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := l.Finalize()
	if len(res.Requests) != len(cfg.Trace) {
		t.Fatalf("completed %d of %d", len(res.Requests), len(cfg.Trace))
	}
	if l.Finalize() != res {
		t.Fatal("Finalize not idempotent")
	}
	if err := l.Inject(workload.Request{ID: 99, Arrival: 0, Input: 8, Output: 8}); err == nil {
		t.Fatal("Inject accepted after Finalize")
	}
	if _, err := l.Advance(context.Background()); err == nil {
		t.Fatal("Advance accepted after Finalize")
	}
}

// TestLoopCancelLatched pins the failure latch: a cancelled Advance
// releases in-flight KV, and the same error resurfaces on every
// subsequent transition.
func TestLoopCancelLatched(t *testing.T) {
	cfg := Config{
		Model:     model.MustByName("opt-6.7b"),
		Profile:   memsim.V100_16G(),
		Scheduler: "alisa",
		Trace:     workload.PoissonTrace(8, 4, 3),
	}
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := l.Advance(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := l.Advance(ctx); err != context.Canceled {
		t.Fatalf("cancelled Advance: %v, want context.Canceled", err)
	}
	if l.Err() != context.Canceled {
		t.Fatalf("latched error %v", l.Err())
	}
	if _, err := l.Advance(context.Background()); err != context.Canceled {
		t.Fatalf("post-cancel Advance: %v, want the latched error", err)
	}
	if err := l.Inject(workload.Request{ID: 99, Arrival: 0, Input: 8, Output: 8}); err != context.Canceled {
		t.Fatalf("post-cancel Inject: %v, want the latched error", err)
	}
	// Partial finalize still works, over whatever completed.
	if res := l.Finalize(); res == nil {
		t.Fatal("no partial result after cancellation")
	}
}
