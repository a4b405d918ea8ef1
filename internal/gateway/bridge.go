package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"

	alisa "repro"
)

// ErrDraining rejects a submission once the bridge has begun its
// graceful drain: in-flight requests finish, new ones are refused. The
// HTTP layer maps it (and the session's own ErrSessionClosed) to 503.
var ErrDraining = errors.New("gateway: draining, not admitting new requests")

// ErrClosed reports a bridge whose driver has exited — drain complete or
// aborted. Late metric reads fall back to the final snapshot instead.
var ErrClosed = errors.New("gateway: closed")

// ErrFailed reports submissions refused because the session latched a
// fatal error (cancellation included); the cause is attached.
var ErrFailed = errors.New("gateway: session failed")

// SubmitSpec is one admission request handed to the bridge.
type SubmitSpec struct {
	// ID is the client's correlation ID, threaded through every event
	// and log line of the request; empty means the bridge assigns
	// "req-<n>" from its sequential counter.
	ID string
	// Input and Output are the request's prompt and generation lengths
	// in tokens.
	Input, Output int
	// Arrival is an explicit simulated arrival time — the scripted-load
	// mode whose results are independent of wall-clock delivery. Nil
	// stamps the request with the current simulated clock: live mode,
	// where the wall clock shapes the simulated arrival process.
	Arrival *float64
}

// Status is a point-in-time view of the bridge for the metrics and
// readiness endpoints, tagged as GET /v1/metrics spells it.
type Status struct {
	Clock    float64              `json:"clock"`
	Pending  int                  `json:"pending"`
	InFlight int                  `json:"in_flight"`
	Draining bool                 `json:"draining"`
	Held     bool                 `json:"held"`
	Window   alisa.WindowSnapshot `json:"window"`
}

// Bridge is the virtual-time↔wall-clock pacing bridge: a single driver
// goroutine owns the alisa.Session (single-goroutine by contract) and
// every mutable field of the bridge but the admission gate, and advances
// simulated time no faster than `scale` simulated seconds per wall
// second. Concurrent connection handlers reach that state only through
// the command channel, which the driver serves before every simulation
// turn, through the `refused` atomic, and — for the run's outcome —
// after doneCh has closed. Events fan out to per-request Subscriber
// buffers inline on the driver.
//
// Determinism contract (DESIGN.md §14): the simulated outcome is a pure
// function of the submitted requests and their arrival stamps. The
// dilation factor, consumer speed and buffer size change when and
// whether events are delivered — never the events themselves or the
// metrics.
type Bridge struct {
	scale  float64 // simulated seconds per wall second; 0 = as fast as possible
	buffer int
	log    *slog.Logger

	session *alisa.Session
	cancel  context.CancelFunc

	cmds   chan func()
	doneCh chan struct{}
	// refused is nil while the bridge admits requests; after that it
	// holds the error every submission gets: ErrDraining once Drain or
	// Abort begins, the ErrFailed-wrapped cause once the session fails,
	// ErrClosed once a run that did not fail has closed.
	refused atomic.Pointer[error]

	// Driver-goroutine state; never touched elsewhere.
	nextID   int
	held     bool
	draining bool
	failed   error
	anchored bool
	anchor   time.Time
	subs     map[int]*Subscriber

	// The outcome: finish writes it before closing doneCh, and it is
	// read only after doneCh has closed.
	finalStatus Status
	result      *alisa.ServeResult
	resultErr   error
}

// newBridge opens a session against the engine and starts the driver.
// hold true starts the bridge gated: submissions queue on the simulated
// timeline but the clock does not move until Release — the scripted-
// workload mode that makes results independent of submission timing.
func newBridge(eng *alisa.Engine, scale float64, buffer int, hold bool, log *slog.Logger) (*Bridge, error) {
	ctx, cancel := context.WithCancel(context.Background())
	b := &Bridge{
		scale:  scale,
		buffer: buffer,
		log:    log,
		cancel: cancel,
		cmds:   make(chan func()),
		doneCh: make(chan struct{}),
		held:   hold,
		subs:   make(map[int]*Subscriber),
	}
	session, err := eng.Open(ctx)
	if err != nil {
		cancel()
		return nil, err
	}
	if err := session.Subscribe(b.observer()); err != nil {
		cancel()
		return nil, err
	}
	b.session = session
	go b.run()
	return b, nil
}

// run is the driver loop: process commands, pace, advance.
func (b *Bridge) run() {
	for {
		idle := b.session.Pending() == 0 && b.session.InFlight() == 0
		if b.draining && (idle || b.failed != nil) {
			b.finish()
			return
		}
		if b.failed != nil || b.held || idle {
			// Nothing to simulate (or simulation forbidden): the wall
			// anchor goes stale, block for the next command.
			b.anchored = false
			cmd := <-b.cmds
			cmd()
			continue
		}
		// Serve one waiting command before every turn, so handlers are
		// answered between turns even when nothing paces the run. No
		// command can fail, hold or idle the session, so the turn below
		// still has work.
		select {
		case cmd := <-b.cmds:
			cmd()
		default:
		}
		if b.scale > 0 && !b.draining {
			// Fix the wall anchor BEFORE the turn runs, so the simulated
			// time the turn consumes is owed to the wall clock — deriving
			// it afterwards would silently absorb the first turn out of
			// every idle stretch.
			b.ensureAnchor()
		}
		if b.scale > 0 && b.session.InFlight() == 0 {
			// The next Advance jumps the clock straight to the head
			// arrival: sleep the dilated interval up front so delivery
			// happens at the arrival's wall time, not before. A drain
			// skips the wait — queued future work is flushed, not paced.
			if a, ok := b.session.NextArrival(); ok && a > b.session.Clock() {
				if b.draining {
					b.anchored = false
				} else if !b.pace(b.wallFor(a)) {
					continue // a command landed; recompute state
				}
			}
		}
		if _, err := b.session.Advance(); err != nil {
			b.fail(err)
			continue
		}
		if b.scale > 0 {
			// Let the wall clock catch up to the turn we just ran.
			b.ensureAnchor()
			for !b.pace(b.wallFor(b.session.Clock())) {
			}
		}
	}
}

// ensureAnchor fixes the wall instant that corresponds to simulated time
// zero, re-derived whenever the bridge wakes from an unpaced stretch
// (idle, held, or a drain flush) so dead wall time is never "owed".
func (b *Bridge) ensureAnchor() {
	if !b.anchored {
		b.anchor = time.Now().Add(-b.dilate(b.session.Clock()))
		b.anchored = true
	}
}

// dilate converts a simulated duration to its wall-clock length.
func (b *Bridge) dilate(sim float64) time.Duration {
	return time.Duration(sim / b.scale * float64(time.Second))
}

// wallFor is the wall deadline for simulated time v.
func (b *Bridge) wallFor(v float64) time.Time { return b.anchor.Add(b.dilate(v)) }

// pace sleeps until target, unless a command arrives first (the command
// runs, and pace reports false so the caller recomputes its state).
func (b *Bridge) pace(target time.Time) bool {
	d := time.Until(target)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case cmd := <-b.cmds:
		cmd()
		return false
	}
}

// fail latches a fatal session error (cancellation included), stops
// admitting, and ends every live subscriber stream with an error event
// so no connection hangs.
func (b *Bridge) fail(err error) {
	b.failed = err
	refusal := fmt.Errorf("%w: %v", ErrFailed, err)
	b.refused.Store(&refusal)
	b.log.Error("gateway: session failed", "err", err)
	clock := b.session.Clock()
	for req, sub := range b.subs {
		sub.publish(Event{Kind: KindError, Request: req, Clock: clock, Err: err.Error()})
	}
	clear(b.subs)
}

// finish closes the session, records the final outcome, and releases
// every waiter. Runs once, on the driver, as its last act: closing
// doneCh publishes the outcome fields to every reader.
func (b *Bridge) finish() {
	res, err := b.session.Close()
	st := b.status()
	st.Draining = true
	b.finalStatus = st
	b.result, b.resultErr = res, err
	if b.failed == nil {
		b.refused.Store(&ErrClosed)
	}
	if res != nil {
		b.log.Info("gateway: drained",
			"completed", res.Completed, "clock", st.Clock,
			"throughput", res.Throughput, "goodput", res.Goodput,
			"slo_attainment", res.SLOAttainment,
			"p95_ttft", res.TTFT.P95, "p95_e2e", res.E2E.P95,
			"preemptions", res.Preemptions)
	}
	if err != nil {
		b.log.Error("gateway: drain finished with error", "err", err)
	}
	close(b.doneCh)
}

// status is the driver-side snapshot.
func (b *Bridge) status() Status {
	return Status{
		Clock:    b.session.Clock(),
		Pending:  b.session.Pending(),
		InFlight: b.session.InFlight(),
		Held:     b.held,
		Draining: b.draining,
		Window:   b.session.Snapshot(),
	}
}

// call runs fn on the driver and waits for it to finish; it fails only
// when the bridge is closed or ctx ends before the driver takes fn. The
// driver runs a command the moment it receives it, so once the send has
// landed the wait is for fn alone.
func (b *Bridge) call(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	select {
	case b.cmds <- func() { fn(); close(done) }:
	case <-b.doneCh:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	<-done
	return nil
}

// Submit pushes one request onto the simulated timeline and returns its
// event stream. The returned Subscriber must be Closed by the caller
// when its connection ends. Validation failures (the session's Push
// contract) come back verbatim; ErrDraining and ErrClosed mean the
// gateway is shutting down.
func (b *Bridge) Submit(ctx context.Context, spec SubmitSpec) (*Subscriber, error) {
	// Fast-path rejection once admission is closed: a drain must refuse
	// new work immediately even while the driver is deep in a turn and
	// not serving commands.
	if refusal := b.refused.Load(); refusal != nil {
		return nil, *refusal
	}
	var sub *Subscriber
	var err error
	if cerr := b.call(ctx, func() { sub, err = b.submit(spec) }); cerr != nil {
		return nil, cerr
	}
	return sub, err
}

// submit runs on the driver.
func (b *Bridge) submit(spec SubmitSpec) (*Subscriber, error) {
	if refusal := b.refused.Load(); refusal != nil {
		return nil, *refusal
	}
	req := b.nextID
	id := spec.ID
	if id == "" {
		id = "req-" + strconv.Itoa(req)
	}
	arrival := b.session.Clock()
	if spec.Arrival != nil {
		arrival = *spec.Arrival
	}
	if err := b.session.Push(alisa.Request{ID: req, Arrival: arrival, Input: spec.Input, Output: spec.Output}); err != nil {
		return nil, err
	}
	b.nextID++
	sub := newSubscriber(id, req, b.buffer)
	b.subs[req] = sub
	if b.log.Enabled(context.Background(), slog.LevelInfo) {
		b.log.Info("gateway: accepted", "id", id, "request", req,
			"input", spec.Input, "output", spec.Output, "arrival", arrival)
	}
	return sub, nil
}

// Status reports the bridge's current clock, queue depths, and rolling
// metrics window. After the bridge closes it returns the final snapshot.
func (b *Bridge) Status(ctx context.Context) (Status, error) {
	var st Status
	err := b.call(ctx, func() { st = b.status() })
	if errors.Is(err, ErrClosed) {
		return b.finalStatus, nil
	}
	return st, err
}

// Accepting reports whether new submissions are admitted — the readiness
// signal. False once a drain begins or the session fails.
func (b *Bridge) Accepting() bool { return b.refused.Load() == nil }

// refuse closes admission with ErrDraining unless it is already closed.
func (b *Bridge) refuse() { b.refused.CompareAndSwap(nil, &ErrDraining) }

// Release opens a held bridge: the simulation starts advancing (and the
// wall anchor is set now). Idempotent; a no-op on a closed bridge.
func (b *Bridge) Release(ctx context.Context) error {
	err := b.call(ctx, func() {
		if b.held {
			b.held = false
			b.log.Info("gateway: released")
		}
	})
	if errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}

// Drain gracefully shuts the bridge down: stop admitting, run every
// pending and in-flight request to completion (flushing their event
// streams), close the session, and return the final ServeResult. Safe
// to call from several goroutines; all of them receive the outcome. A
// ctx cancellation abandons the wait, not the drain — pair it with
// Abort for a hard stop.
func (b *Bridge) Drain(ctx context.Context) (*alisa.ServeResult, error) {
	// Admission closes the instant a drain is requested, not when the
	// driver next reads a command — new submissions see ErrDraining
	// right away while in-flight work runs to completion.
	b.refuse()
	if err := b.call(ctx, b.startDrain); err != nil && !errors.Is(err, ErrClosed) {
		return nil, err
	}
	select {
	case <-b.doneCh:
		return b.result, b.resultErr
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// startDrain runs on the driver.
func (b *Bridge) startDrain() {
	if !b.draining {
		b.log.Info("gateway: draining", "pending", b.session.Pending(), "in_flight", b.session.InFlight())
	}
	b.draining = true
	b.held = false
	b.refuse()
}

// Abort cancels the session's context — in-flight KV is released, the
// partial result over completed requests is computed, and every open
// stream ends with an error event — then drains. The escalation path
// when a graceful Drain outlives its deadline.
func (b *Bridge) Abort() {
	b.refuse()
	b.cancel()
	select {
	case b.cmds <- b.startDrain:
	case <-b.doneCh:
	}
}

// fanout delivers one simulation event to its request's subscriber, if
// any, and returns that subscriber. It runs inline on the driver's
// simulation turn — the fan-out hot path — so it must not allocate,
// format, or log.
//
//alisa:hotpath
func (b *Bridge) fanout(ev Event) *Subscriber {
	if b.scale > 0 && b.anchored {
		// Stamp the dilated delivery deadline: a turn publishes all its
		// events at once, wall-wise at the turn's start; the consumer
		// holds each until the wall instant its simulated clock maps to.
		ev.At = b.wallFor(ev.Clock)
	}
	sub := b.subs[ev.Request]
	if sub == nil {
		return nil
	}
	if ev.Kind.Terminal() {
		delete(b.subs, ev.Request)
	}
	sub.publish(ev)
	return sub
}

// observer adapts the session's observer stream onto the fan-out. Step
// events are batch-level, not request-level; no subscriber carries them.
func (b *Bridge) observer() alisa.Observer {
	return alisa.Observer{
		Admission: func(e alisa.AdmissionEvent) {
			b.fanout(Event{Kind: KindAdmission, Request: e.Request, Clock: e.Clock,
				Wait: e.Wait, Input: e.Input, Output: e.Output, Batch: e.Batch})
		},
		FirstToken: func(e alisa.FirstTokenEvent) {
			b.fanout(Event{Kind: KindFirstToken, Request: e.Request, Clock: e.Clock, TTFT: e.TTFT})
		},
		Token: b.onToken,
		Preemption: func(e alisa.PreemptionEvent) {
			b.fanout(Event{Kind: KindPreemption, Request: e.Request, Clock: e.Clock, Generated: e.Generated})
		},
		Completion: func(e alisa.CompletionEvent) {
			sub := b.fanout(Event{Kind: KindCompletion, Request: e.Request, Clock: e.Clock,
				TTFT: e.TTFT, TPOT: e.TPOT, E2E: e.E2E, SLOMet: e.SLOMet, Preemptions: e.Preemptions})
			// Info boxes its arguments before the handler's Enabled
			// check, so an unlogged gateway asks first and allocates
			// nothing per stream.
			if sub != nil && b.log.Enabled(context.Background(), slog.LevelInfo) {
				b.log.Info("gateway: completion", "id", sub.id, "request", e.Request,
					"clock", e.Clock, "ttft", e.TTFT, "e2e", e.E2E, "slo_met", e.SLOMet)
			}
		},
	}
}

// onToken is the per-token callback, the finest-grained event.
//
//alisa:hotpath
func (b *Bridge) onToken(e alisa.TokenEvent) {
	b.fanout(Event{Kind: KindToken, Request: e.Request, Clock: e.Clock, Index: e.Index})
}
