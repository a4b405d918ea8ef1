package gateway

import (
	"context"
	"errors"
	"log/slog"
	"testing"
	"time"

	alisa "repro"
)

func testEngine(t *testing.T, opts ...alisa.Option) *alisa.Engine {
	t.Helper()
	eng, err := alisa.New("opt-6.7b", append([]alisa.Option{
		alisa.WithMaxBatch(4),
		alisa.WithSLO(10, 0.5),
		alisa.WithMetricsWindow(64),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func discardLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

func testBridge(t *testing.T, scale float64, buffer int, hold bool, opts ...alisa.Option) *Bridge {
	t.Helper()
	b, err := newBridge(testEngine(t, opts...), scale, buffer, hold, discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		b.Abort()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.Drain(ctx)
	})
	return b
}

// TestBridgeCompletionAllocsZero holds an unlogged gateway to boxing
// nothing per stream: under the discard logger the gateway defaults to,
// the completion fan-out to a live subscriber allocates nothing.
func TestBridgeCompletionAllocsZero(t *testing.T) {
	b := &Bridge{log: discardLogger(), subs: make(map[int]*Subscriber)}
	sub := newSubscriber("req-7", 7, 4)
	completion := b.observer().Completion
	ev := alisa.CompletionEvent{Request: 7, Clock: 12.5, TTFT: 0.25, TPOT: 0.05, E2E: 3.75, SLOMet: true}
	allocs := testing.AllocsPerRun(100, func() {
		b.subs[7] = sub // the terminal event removes it
		completion(ev)
	})
	if allocs != 0 {
		t.Fatalf("completion fan-out allocates %.1f objects per stream, want 0", allocs)
	}
	if got, _, _, _ := sub.Next(context.Background()); got.Kind != KindCompletion || got.Request != 7 {
		t.Fatalf("subscriber got %+v, want the completion", got)
	}
}

// at is an explicit simulated arrival time for a SubmitSpec.
func at(v float64) *float64 { return &v }

// gateTokens returns an engine option whose observer holds the driver
// inside each turn that decodes a token of request 0 until a receive on
// step succeeds or free is called. The engine's observer runs on the
// driver, so an unpaced run stays busy, serving commands only between
// turns, for as long as a test needs.
func gateTokens() (gate alisa.Option, step chan struct{}, free context.CancelFunc) {
	step = make(chan struct{})
	freed, free := context.WithCancel(context.Background())
	return alisa.WithObserver(alisa.Observer{Token: func(e alisa.TokenEvent) {
		if e.Request == 0 {
			select {
			case <-step:
			case <-freed.Done():
			}
		}
	}}), step, free
}

// drainEvents pulls events until the terminal one (or the deadline),
// returning them along with the accumulated drop counts Next reported.
func drainEvents(t *testing.T, sub *Subscriber) (events []Event, drops []int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		ev, dropped, _, ok := sub.Next(ctx)
		if !ok {
			t.Fatalf("event stream ended before a terminal event (have %d events)", len(events))
		}
		events = append(events, ev)
		drops = append(drops, dropped)
		if ev.Kind.Terminal() {
			return events, drops
		}
	}
}

// TestBridgeBufferDeliversEverything runs a request whose eight
// lifecycle events fit its buffer, read by a consumer in lockstep: the
// full lifecycle arrives in order with zero drops.
func TestBridgeBufferDeliversEverything(t *testing.T) {
	b := testBridge(t, 0, 8, false)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "every", Input: 16, Output: 5, Arrival: at(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.ID() != "every" || sub.Request() != 0 {
		t.Fatalf("subscriber identity = (%q, %d), want (every, 0)", sub.ID(), sub.Request())
	}

	events, drops := drainEvents(t, sub)
	wantKinds := []Kind{KindAdmission, KindFirstToken, KindToken, KindToken, KindToken, KindToken, KindToken, KindCompletion}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(wantKinds), events)
	}
	tokenIndex := 0
	for i, ev := range events {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if drops[i] != 0 {
			t.Errorf("event %d reported %d drops; a buffer that holds the stream must not lose events", i, drops[i])
		}
		if ev.Request != sub.Request() {
			t.Errorf("event %d request = %d, want %d", i, ev.Request, sub.Request())
		}
		if ev.Kind == KindToken {
			tokenIndex++
			if ev.Index != tokenIndex {
				t.Errorf("token event index = %d, want %d", ev.Index, tokenIndex)
			}
		}
	}
	final := events[len(events)-1]
	if final.TTFT <= 0 || final.E2E < final.TTFT {
		t.Errorf("completion latencies TTFT=%v E2E=%v implausible", final.TTFT, final.E2E)
	}
}

// TestBridgeDropOldestMarksLoss leaves a 2-slot buffer unconsumed until
// the whole generation has run: the oldest events are discarded and
// counted, but the terminal completion survives (it is published last,
// so it is never the oldest at overflow time).
func TestBridgeDropOldestMarksLoss(t *testing.T) {
	b := testBridge(t, 0, 2, false)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "slow", Input: 16, Output: 8, Arrival: at(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Let the whole generation run before reading a single event.
	if _, err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st, err := b.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.InFlight != 0 {
		t.Fatalf("final status = %+v, want drained queues", st)
	}

	events, drops := drainEvents(t, sub)
	// 11 lifecycle events (admission, first token, 8 tokens, completion)
	// squeezed through 2 slots: exactly the last two survive.
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	if drops[0] != 9 {
		t.Errorf("first delivered event reported %d drops, want 9", drops[0])
	}
	if events[1].Kind != KindCompletion {
		t.Errorf("final event kind = %q, want completion to survive overflow", events[1].Kind)
	}
	if st.Window.Count != 1 {
		t.Errorf("window count = %d, want 1 — drops must not touch metrics", st.Window.Count)
	}
}

// TestBridgeDrainRejectsSubmissions pins the admission gate: the instant
// Drain is requested, Submit fails with ErrDraining — even while the
// driver is held mid-turn and cannot serve commands.
func TestBridgeDrainRejectsSubmissions(t *testing.T) {
	// The in-flight request's tokens wait for free, so the drain below
	// cannot complete (ruling out an ErrClosed race) until they pass.
	gate, _, free := gateTokens()
	defer free()
	b := testBridge(t, 0, 64, false, gate)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "inflight", Input: 16, Output: 4, Arrival: at(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	type outcome struct {
		res *alisa.ServeResult
		err error
	}
	drainDone := make(chan outcome, 1)
	go func() {
		res, err := b.Drain(context.Background())
		drainDone <- outcome{res, err}
	}()
	for b.Accepting() {
		time.Sleep(time.Millisecond)
	}

	if _, err := b.Submit(context.Background(), SubmitSpec{ID: "late", Input: 8, Output: 2, Arrival: at(0)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit during drain: %v, want ErrDraining", err)
	}

	free()
	events, _ := drainEvents(t, sub)
	if events[len(events)-1].Kind != KindCompletion {
		t.Fatalf("in-flight request must complete through a drain, got %+v", events)
	}
	if d := <-drainDone; d.err != nil || d.res == nil || d.res.Completed != 1 {
		t.Fatalf("Drain = %+v, %v; want 1 completion", d.res, d.err)
	}
	if _, err := b.Submit(context.Background(), SubmitSpec{Input: 8, Output: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close: %v, want ErrClosed", err)
	}
	if st, err := b.Status(context.Background()); err != nil || !st.Draining {
		t.Fatalf("final Status = %+v, %v; want retained draining snapshot", st, err)
	}
}

// TestBridgeHoldGatesClock pins the scripted-workload gate: submissions
// against a held bridge queue on the simulated timeline but the clock
// stays at zero until Release.
func TestBridgeHoldGatesClock(t *testing.T) {
	b := testBridge(t, 0, 8, true)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		spec := SubmitSpec{Input: 16, Output: 2, Arrival: at(float64(i) * 0.25)}
		if _, err := b.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Held || st.Clock != 0 || st.Pending != 3 {
		t.Fatalf("held status = %+v, want clock 0 with 3 pending", st)
	}
	if err := b.Release(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := b.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("completed %d of 3 after release", res.Completed)
	}
}

// TestBridgeAbortTerminatesStreams cancels a real-time (-time-scale 1)
// bridge mid-generation: every open stream must end with an error event
// rather than hang, and the bridge must report the failure.
func TestBridgeAbortTerminatesStreams(t *testing.T) {
	b := testBridge(t, 1, 64, false)
	sub, err := b.Submit(context.Background(), SubmitSpec{ID: "doomed", Input: 256, Output: 64, Arrival: at(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	b.Abort()

	events, _ := drainEvents(t, sub)
	final := events[len(events)-1]
	if final.Kind != KindError || final.Err == "" {
		t.Fatalf("aborted stream ended with %+v, want an error event", final)
	}
	if b.Accepting() {
		t.Error("bridge still accepting after Abort")
	}
	if _, err := b.Submit(context.Background(), SubmitSpec{Input: 8, Output: 2}); err == nil {
		t.Error("Submit accepted after Abort")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := b.Drain(ctx); err == nil {
		t.Error("Drain after Abort should surface the cancellation")
	}
}

// TestBridgeServesCommandsMidRun pins the driver's command poll: while
// an unpaced run is busy — a request whose every token waits for the
// test — a live Submit is answered between turns, and the new request
// joins the running batch instead of waiting for the session to go
// idle.
func TestBridgeServesCommandsMidRun(t *testing.T) {
	const tokens = 24
	gate, step, free := gateTokens()
	defer free()
	b := testBridge(t, 0, 64, false, gate)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	first, err := b.Submit(ctx, SubmitSpec{ID: "first", Input: 16, Output: tokens, Arrival: at(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	type submitted struct {
		sub *Subscriber
		err error
	}
	live := make(chan submitted, 1)
	go func() {
		sub, err := b.Submit(ctx, SubmitSpec{ID: "live", Input: 16, Output: 2})
		live <- submitted{sub, err}
	}()
	var second submitted
	for passed := 0; second.sub == nil && second.err == nil; passed++ {
		if passed == tokens {
			t.Fatalf("the first request decoded all %d tokens with the live Submit still waiting", tokens)
		}
		step <- struct{}{} // one more turn
		select {
		case second = <-live:
		case <-time.After(50 * time.Millisecond):
		}
	}
	if second.err != nil {
		t.Fatal(second.err)
	}
	defer second.sub.Close()

	free()
	events, _ := drainEvents(t, second.sub)
	rest, _ := drainEvents(t, first)
	adm, end := events[0], rest[len(rest)-1]
	if adm.Kind != KindAdmission || adm.Batch != 2 {
		t.Errorf("live request's first event = %+v, want an admission into a batch of 2", adm)
	}
	if end.Kind != KindCompletion || adm.Clock >= end.Clock {
		t.Errorf("first request ended with %q at %v, want a completion after the live admission at %v", end.Kind, end.Clock, adm.Clock)
	}
}
