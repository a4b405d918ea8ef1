package alisa

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sched"
)

// sessionEngineOpts compiles the option set the session suite uses for a
// scheduler: the paper's sparse/INT8 setting for alisa, dense FP16 for
// every baseline.
func sessionEngineOpts(name string, extra ...Option) []Option {
	opts := []Option{WithScheduler(name), WithMaxBatch(8)}
	if name == "alisa" {
		opts = append(opts, WithKVSparsity(0.8), WithKVBits(8))
	}
	return append(opts, extra...)
}

// recordingObserver flattens every streamed event into strings, so two
// paths' full event streams — kinds, order, and payloads — compare as
// one slice.
type recordingObserver struct{ events []string }

func (r *recordingObserver) observer() Observer {
	return Observer{
		Step: func(e StepEvent) {
			r.events = append(r.events, fmt.Sprintf("step %+v", e))
		},
		Admission: func(e AdmissionEvent) {
			r.events = append(r.events, fmt.Sprintf("admit %+v", e))
		},
		FirstToken: func(e FirstTokenEvent) {
			r.events = append(r.events, fmt.Sprintf("first %+v", e))
		},
		Token: func(e TokenEvent) {
			r.events = append(r.events, fmt.Sprintf("token %+v", e))
		},
		Preemption: func(e PreemptionEvent) {
			r.events = append(r.events, fmt.Sprintf("preempt %+v", e))
		},
		Completion: func(e CompletionEvent) {
			r.events = append(r.events, fmt.Sprintf("finish %+v", e))
		},
	}
}

// TestSessionMatchesServe is the replay-equivalence property of the
// session redesign: for every registered servable scheduler, pushing a
// trace's arrivals into a Session and closing produces metrics AND
// streamed observer events bit-identical to Engine.Serve
// on the same trace. Runs pinned at GOMAXPROCS=4 so the -race CI pass
// exercises it with real parallelism available.
func TestSessionMatchesServe(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	trace := PoissonTrace(16, 3.0, 21)
	ctx := context.Background()
	for _, name := range sched.Registered() {
		if name == "deepspeed-zero" || name == "deepspeed" {
			continue // not servable: engine-wide weight streaming
		}
		t.Run(name, func(t *testing.T) {
			serveRec := &recordingObserver{}
			serveEng, err := New("opt-6.7b", sessionEngineOpts(name, WithObserver(serveRec.observer()))...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := serveEng.Serve(ctx, trace)
			if err != nil {
				t.Fatalf("Serve: %v", err)
			}

			sessRec := &recordingObserver{}
			sessEng, err := New("opt-6.7b", sessionEngineOpts(name, WithObserver(sessRec.observer()))...)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sessEng.Open(ctx)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for _, r := range trace {
				if err := s.Push(r); err != nil {
					t.Fatalf("Push r%d: %v", r.ID, err)
				}
			}
			got, err := s.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("session result diverged from Serve:\nserve:   %+v\nsession: %+v", want, got)
			}
			if !reflect.DeepEqual(serveRec.events, sessRec.events) {
				min := len(serveRec.events)
				if len(sessRec.events) < min {
					min = len(sessRec.events)
				}
				for i := 0; i < min; i++ {
					if serveRec.events[i] != sessRec.events[i] {
						t.Fatalf("observer streams diverged at event %d:\nserve:   %s\nsession: %s",
							i, serveRec.events[i], sessRec.events[i])
					}
				}
				t.Fatalf("observer stream lengths diverged: %d vs %d", len(serveRec.events), len(sessRec.events))
			}
		})
	}
}

// sessionSeedAllocs mirrors internal/serve's seedAllocsPerRun: the
// allocation count of the pre-rebuild PR 3 loop on the pressured replay
// workload. The session path must stay ≥ 5× below it, extending
// TestServeSteadyStateAllocs to the streaming API.
const sessionSeedAllocs = 5647

// TestSessionSteadyStateAllocs is the session-path allocation guard: a
// full Open → Push×N → drain → Close cycle on the pressured replay
// workload must stay ≥ 5× below the seed loop, i.e. the
// streaming surface must not reintroduce the per-iteration allocations
// the PR 4 rebuild removed.
func TestSessionSteadyStateAllocs(t *testing.T) {
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	trace := PoissonTrace(20, 3.0, 42)
	ctx := context.Background()
	cycle := func() {
		s, err := eng.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range trace {
			if err := s.Push(r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm build caches before measuring
	allocs := testing.AllocsPerRun(10, cycle)
	if limit := float64(sessionSeedAllocs) / 5; allocs > limit {
		t.Errorf("session cycle allocates %.0f per run, want ≤ %.0f (≥5× below the %d-alloc seed loop)",
			allocs, limit, sessionSeedAllocs)
	}
	t.Logf("allocs/session-cycle: %.0f (seed loop: %d)", allocs, sessionSeedAllocs)
}

// TestSessionWindowedMetrics drives a session turn by turn and checks
// the online window: snapshots appear as completions land, and with a
// window at least as large as the workload the final snapshot's digests
// equal the final ServeResult's exactly.
func TestSessionWindowedMetrics(t *testing.T) {
	const n = 12
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8), WithMetricsWindow(n))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.Count != 0 {
		t.Fatalf("fresh session snapshot %+v", snap)
	}
	for _, r := range PoissonTrace(n, 2.5, 13) {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	sawPartial := false
	for {
		progressed, err := s.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
		if c := s.Snapshot().Count; c > 0 && c < n {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("no mid-run snapshot observed completions before the end")
	}
	final := s.Snapshot()
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final.Count != n {
		t.Fatalf("final window holds %d of %d", final.Count, n)
	}
	if final.TTFT != res.TTFT || final.TPOT != res.TPOT || final.E2E != res.E2E {
		t.Fatalf("full-window digests diverged from final result:\nwindow TTFT %+v\nresult TTFT %+v", final.TTFT, res.TTFT)
	}
	if final.SLOAttainment != res.SLOAttainment {
		t.Fatalf("window SLO %v != result %v", final.SLOAttainment, res.SLOAttainment)
	}
}

// TestSessionLifecycleEvents pins the new lifecycle kinds end to end:
// one first-token event per admission, and exactly one token event per
// generated token of every completed request (preempted generations
// restart their token indices).
func TestSessionLifecycleEvents(t *testing.T) {
	var admits, firsts, tokens int
	outputs := map[int]int{}
	obs := Observer{
		Admission:  func(AdmissionEvent) { admits++ },
		FirstToken: func(FirstTokenEvent) { firsts++ },
		Token: func(e TokenEvent) {
			tokens++
			outputs[e.Request] = e.Index
		},
	}
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	trace := PoissonTrace(10, 3, 4)
	res, err := eng.Serve(context.Background(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if firsts != admits {
		t.Fatalf("%d first-token events, %d admissions", firsts, admits)
	}
	want := 0
	for _, r := range trace {
		want += r.Output
		if outputs[r.ID] != r.Output {
			t.Fatalf("r%d: last token index %d, want %d", r.ID, outputs[r.ID], r.Output)
		}
	}
	if res.Preemptions == 0 && tokens != want {
		t.Fatalf("%d token events, want %d (no preemptions)", tokens, want)
	}
	if tokens < want {
		t.Fatalf("%d token events, want ≥ %d", tokens, want)
	}
}

// TestSubscribeFromCallback pins Subscribe's "from the next event on"
// contract from inside a callback: a recorder subscribed during the
// first recorder's completion of one request misses that completion's
// fan-out and then sees exactly the events the first one sees.
func TestSubscribeFromCallback(t *testing.T) {
	eng, err := New("opt-6.7b", sessionEngineOpts("alisa")...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, second := &recordingObserver{}, &recordingObserver{}
	const trigger = 3
	mark := -1
	obs := first.observer()
	record := obs.Completion
	obs.Completion = func(e CompletionEvent) {
		record(e)
		if e.Request == trigger {
			mark = len(first.events)
			if err := s.Subscribe(second.observer()); err != nil {
				t.Error(err)
			}
		}
	}
	if err := s.Subscribe(obs); err != nil {
		t.Fatal(err)
	}
	for _, req := range PoissonTrace(12, 4, 5) {
		if err := s.Push(req); err != nil {
			t.Fatal(err)
		}
	}
	// Advance, not Close: Subscribe during Close's drain is refused.
	for {
		progressed, err := s.Advance()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	if mark < 0 || mark == len(first.events) {
		t.Fatalf("request %d's completion left no later events to compare (mark %d of %d)", trigger, mark, len(first.events))
	}
	if !reflect.DeepEqual(second.events, first.events[mark:]) {
		t.Fatalf("late subscriber saw %d events, want the %d after request %d's completion", len(second.events), len(first.events)-mark, trigger)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionStateErrors pins the session state machine: pushing,
// advancing, or subscribing after Close fails; Close is idempotent.
func TestSessionStateErrors(t *testing.T) {
	eng, err := New("opt-6.7b")
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(Request{ID: 0, Arrival: 0, Input: 32, Output: 8}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil || len(res.Requests) != 1 {
		t.Fatalf("Close: %v, %d requests", err, len(res.Requests))
	}
	again, err := s.Close()
	if err != nil || again != res {
		t.Fatal("Close not idempotent")
	}
	// Every use-after-Close failure is the one sentinel, so callers (the
	// HTTP gateway maps it to 503) can branch with errors.Is.
	if err := s.Push(Request{ID: 1, Arrival: 0, Input: 32, Output: 8}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := s.Advance(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Advance after Close: %v, want ErrSessionClosed", err)
	}
	if err := s.Subscribe(Observer{}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Subscribe after Close: %v, want ErrSessionClosed", err)
	}
	if _, err := s.Fork(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Fork after Close: %v, want ErrSessionClosed", err)
	}
}

// TestSessionCancellation cancels mid-session from a completion callback
// and expects Close to mirror Serve's contract: partial metrics over the
// finished requests alongside ctx.Err().
func TestSessionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, cancelAfter = 16, 3
	done := 0
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(4),
		WithObserver(Observer{Completion: func(CompletionEvent) {
			done++
			if done == cancelAfter {
				cancel()
			}
		}}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range PoissonTrace(n, 4, 7) {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled Close returned no partial result")
	}
	if len(res.Requests) < cancelAfter || len(res.Requests) >= n {
		t.Fatalf("partial result has %d finished requests, want in [%d, %d)", len(res.Requests), cancelAfter, n)
	}
}

// TestSessionCancelCauseClassified pins the cancellation classification
// on the Session.Close path for cause-wrapped contexts: a context
// cancelled via context.WithCancelCause must still be treated as a
// cancellation — partial result returned, error matching
// context.Canceled — identically to serve.Run (see
// TestRunClassifiesCauseWrappedCancel in internal/serve).
func TestSessionCancelCauseClassified(t *testing.T) {
	cause := errors.New("fleet rebalance moved this session")
	ctx, cancel := context.WithCancelCause(context.Background())
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range PoissonTrace(8, 4, 7) {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	cancel(cause)
	res, err := s.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled classification", err)
	}
	if res == nil {
		t.Fatal("cause-wrapped cancellation must still carry the partial result")
	}
	if context.Cause(ctx) != cause {
		t.Fatalf("cause lost: %v", context.Cause(ctx))
	}
}

// TestServeClosedLoopDeterministicAndComplete pins the closed-loop
// driver: every budgeted request completes, the result is bit-identical
// across runs, and concurrency actually scales the in-flight load.
func TestServeClosedLoopDeterministicAndComplete(t *testing.T) {
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := ClosedLoop{Clients: 4, Requests: 24, ThinkTime: 0.25, Seed: 7}
	first, err := eng.ServeClosedLoop(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Requests) != cl.Requests {
		t.Fatalf("completed %d of %d", len(first.Requests), cl.Requests)
	}
	if first.Throughput <= 0 || first.TTFT.P99 <= 0 {
		t.Fatalf("degenerate metrics: %+v", first)
	}
	second, err := eng.ServeClosedLoop(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("closed-loop run not deterministic in its seed")
	}

	// The closed loop self-limits: never more in flight than clients.
	peak := 0
	probe, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8),
		WithObserver(Observer{Admission: func(e AdmissionEvent) {
			if e.Batch > peak {
				peak = e.Batch
			}
		}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.ServeClosedLoop(ctx, ClosedLoop{Clients: 3, Requests: 12, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("peak batch %d exceeds %d closed-loop clients", peak, 3)
	}
}

// TestServeClosedLoopValidation walks the ClosedLoop field checks.
func TestServeClosedLoopValidation(t *testing.T) {
	eng, err := New("opt-6.7b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		cl    ClosedLoop
		field string
	}{
		{ClosedLoop{Clients: 0, Requests: 8}, "Clients"},
		{ClosedLoop{Clients: -2, Requests: 8}, "Clients"},
		{ClosedLoop{Clients: 2, Requests: 0}, "Requests"},
		{ClosedLoop{Clients: 2, Requests: 8, ThinkTime: -1}, "ThinkTime"},
	}
	for _, tc := range cases {
		var ce *ConfigError
		if _, err := eng.ServeClosedLoop(ctx, tc.cl); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%+v: err = %v, want ConfigError on %s", tc.cl, err, tc.field)
		}
	}

	// Fewer requests than clients is legal: only Requests clients start.
	res, err := eng.ServeClosedLoop(ctx, ClosedLoop{Clients: 8, Requests: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 3 {
		t.Fatalf("completed %d of 3", len(res.Requests))
	}
}

// TestWithMetricsWindowValidation pins the new option's field error.
func TestWithMetricsWindowValidation(t *testing.T) {
	for _, n := range []int{0, -5} {
		var ce *ConfigError
		if _, err := New("opt-6.7b", WithMetricsWindow(n)); !errors.As(err, &ce) || ce.Field != "MetricsWindow" {
			t.Errorf("WithMetricsWindow(%d): err = %v, want ConfigError on MetricsWindow", n, err)
		}
	}
}
