package alisa

import (
	"context"
	"errors"
	"math/rand"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workload"
)

// ErrSessionClosed reports a transition attempted on a Session after
// Close: Push, Advance, Fork, and Subscribe all fail with it once the
// session has begun (or finished) its graceful drain. Callers that race
// submissions against shutdown — a serving gateway draining on SIGTERM —
// test for it with errors.Is and translate it into their own
// "unavailable, stop sending" signal rather than a hard failure.
var ErrSessionClosed = errors.New("alisa: session closed")

// WindowSnapshot is one point-in-time digest of a session's rolling
// completion window: TTFT/TPOT/E2E percentiles, windowed throughput and
// goodput, and SLO attainment over the last-N completions. See
// Session.Snapshot.
type WindowSnapshot = metrics.WindowSnapshot

// Session is an interactive, push-based serving simulation: where Serve
// replays a pre-materialized trace and reports only at the end, a
// Session accepts requests at any simulated time, streams per-request
// lifecycle events (admission, first token, per-token, preemption,
// completion) to the engine's Observer and any Subscribe'd observers,
// and exposes online windowed metrics between turns. It is the public
// face of the step-driven serve.Loop core — Engine.Serve itself is a
// thin replay adapter over the same core.
//
// The simulation owns a virtual clock, so the caller drives it
// explicitly: Push requests (future arrivals included), then Advance
// turn by turn — or Close, which gracefully drains everything still in
// flight and returns the final ServeResult. Pushing from an observer
// callback during Advance is supported; that is how closed-loop clients
// issue their next request the moment the previous one completes (see
// ClosedLoop).
//
// A Session is single-goroutine, like the simulation it drives: Push,
// Advance, Snapshot, and Close must not be called concurrently. A
// Session fed a trace's arrivals before its first Advance reproduces
// Engine.Serve on that trace bit for bit (metrics and event stream),
// which the equivalence suite pins.
type Session struct {
	eng    *Engine
	ctx    context.Context
	loop   *serve.Loop
	window *metrics.Window
	// subs are the Subscribe'd observers, in Subscribe order.
	subs   []Observer
	closed bool
	result *ServeResult
	err    error
}

// Open begins a streaming serving session against the compiled
// configuration. The session starts idle at simulated time zero with no
// requests; feed it with Push and drive it with Advance or Close.
// Cancelling ctx mid-session releases all in-flight KV on the next
// transition and latches ctx.Err(), mirroring Serve's cancellation
// contract.
func (e *Engine) Open(ctx context.Context) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{
		eng:    e,
		ctx:    ctx,
		window: metrics.NewWindow(e.metricsWindow),
	}
	loop, err := serve.NewLoop(e.serveConfig(nil, s.observer()))
	if err != nil {
		return nil, err
	}
	s.loop = loop
	return s, nil
}

// Push injects one request onto the session's simulated timeline. The
// arrival may lie in the future — the loop jumps the clock to it when
// idle — or at/before the current clock, making the request immediately
// due; equal arrivals keep push order (FCFS). Request IDs must be
// unique within the session and lengths positive and within the model's
// sequence budget. Pushing on a closed or failed session is an error.
func (s *Session) Push(req Request) error {
	if s.closed {
		return ErrSessionClosed
	}
	return s.loop.Inject(req)
}

// Advance runs one event-loop turn — admission, one fused decode
// iteration over the active batch, completions — and reports whether
// any work was done. false with a nil error means the session is idle:
// everything pushed so far has completed, and the session is waiting
// for more Push calls (or Close). Errors (an unservable request,
// context cancellation) are latched: the session is failed and Close
// reports the outcome.
func (s *Session) Advance() (bool, error) {
	if s.closed {
		return false, ErrSessionClosed
	}
	return s.loop.Advance(s.ctx)
}

// Clock returns the session's current simulated time in seconds.
func (s *Session) Clock() float64 { return s.loop.Clock() }

// Pending returns the number of pushed requests waiting for admission.
func (s *Session) Pending() int { return s.loop.Pending() }

// InFlight returns the current decode-batch occupancy.
func (s *Session) InFlight() int { return s.loop.Active() }

// NextArrival reports the earliest queued arrival time, in simulated
// seconds, and whether any request is waiting for admission. A pacing
// layer mapping simulated time onto a wall clock (the serving gateway's
// time-dilation bridge) peeks at it to know how long the next Advance
// would jump while the batch is empty, and sleeps the dilated wall
// interval before advancing instead of after.
func (s *Session) NextArrival() (float64, bool) { return s.loop.NextArrival() }

// Snapshot digests the rolling completion window — TTFT/TPOT/E2E
// percentiles, windowed throughput/goodput, and SLO attainment over the
// most recent completions (window size set by WithMetricsWindow) — the
// online view a monitoring loop polls between turns, long before Close
// produces the final ServeResult. The zero-value snapshot (Count 0)
// means no request has completed yet.
func (s *Session) Snapshot() WindowSnapshot { return s.window.Snapshot() }

// Fork branches the session into an independent continuation: the
// returned session resumes from this one's exact current state —
// simulated clock, wait queue, in-flight batch with each sequence's
// scheduler state, per-request records or streaming digests, and the
// rolling metrics window — and the two sessions then advance separately,
// each free to Push a different future. A fork driven through the same
// Push/Advance sequence as the original produces bit-identical results
// (the loop-level determinism contract, pinned by test); diverging them
// is the point — what-if admission studies, speculative load probes, or
// A/B-ing a traffic spike against a baseline from one warmed-up state.
//
// The engine's compiled Observer is carried over (the fork's events flow
// to it too); Subscribe'd observers are not — subscribers belong to one
// session's event stream, so attach fresh ones to the fork as needed.
// Forking a closed or failed session is an error.
func (s *Session) Fork() (*Session, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	f := &Session{
		eng:    s.eng,
		ctx:    s.ctx,
		window: s.window.Clone(),
	}
	loop, err := s.loop.Fork(f.observer())
	if err != nil {
		return nil, err
	}
	f.loop = loop
	return f, nil
}

// Subscribe attaches an additional streaming observer for the rest of
// the session, alongside the engine's compiled Observer. Events are
// delivered to the engine's observer first, then to subscribers in
// Subscribe order, inline on the simulation loop. Subscribing mid-
// session is allowed, from a callback too; the new observer sees events
// from the next one on.
func (s *Session) Subscribe(obs Observer) error {
	if s.closed {
		return ErrSessionClosed
	}
	s.subs = append(s.subs, obs)
	s.loop.SetObserver(s.observer())
	return nil
}

// Close gracefully drains the session — no further pushes are accepted,
// every pending and in-flight request runs to completion — verifies the
// KV accounting returned exactly to the static reservations, and
// returns the final ServeResult over every request the session saw, in
// push order. If the session's context was cancelled, the partial
// result over the requests that completed is returned alongside
// ctx.Err(), exactly as Engine.Serve reports cancellation; other fatal
// errors return a nil result. Close is idempotent: later calls return
// the same outcome.
func (s *Session) Close() (*ServeResult, error) {
	if s.closed {
		return s.result, s.err
	}
	s.closed = true
	if err := s.loop.Drain(s.ctx); err != nil {
		if serve.IsCancellation(err) {
			s.result, s.err = s.loop.Finalize(), err
		} else {
			s.result, s.err = nil, err
		}
		return s.result, s.err
	}
	s.result = s.loop.Finalize()
	return s.result, nil
}

// observer composes the session's loop observer: a tap feeding the
// rolling metrics window from completions and prefix-probed admissions,
// then the engine's observer, then subscribers in Subscribe order.
func (s *Session) observer() Observer {
	w := s.window
	tap := Observer{
		Admission: func(e AdmissionEvent) {
			if e.PrefixProbed {
				w.ObservePrefix(e.CachedTokens, e.SharedBytes)
			}
		},
		Completion: func(e CompletionEvent) {
			w.Observe(e.Clock, e.TTFT, e.TPOT, e.E2E, e.Output, e.SLOMet)
		},
	}
	return events.Multi(append([]Observer{tap, s.eng.observer}, s.subs...)...)
}

// ClosedLoop describes a closed-loop serving workload: Clients
// concurrent clients, each issuing one request, waiting for its
// completion, thinking, then issuing the next — so the offered load
// adapts to the system's speed instead of following a fixed timeline.
// This regime cannot be expressed as a static TraceWorkload at all:
// every arrival after the first depends on a completion time the
// simulation itself produces.
type ClosedLoop struct {
	// Clients is the number of concurrent closed-loop clients — the
	// concurrency axis of a latency-vs-concurrency study.
	Clients int
	// Requests is the total request budget across all clients; the run
	// ends when every issued request has completed.
	Requests int
	// ThinkTime is the mean think time in seconds between a client's
	// completion and its next request (exponentially distributed per
	// client, and also staggering each client's first arrival). 0 means
	// clients re-issue immediately.
	ThinkTime float64
	// Seed drives the per-client shape and think-time streams; shapes
	// come from the same heterogeneous mixture as PoissonTrace.
	Seed int64
}

// validate reports the first invalid ClosedLoop field.
func (cl ClosedLoop) validate() error {
	switch {
	case cl.Clients <= 0:
		return &ConfigError{Field: "Clients", Value: cl.Clients, Reason: "must be positive"}
	case cl.Requests <= 0:
		return &ConfigError{Field: "Requests", Value: cl.Requests, Reason: "must be positive"}
	case cl.ThinkTime < 0:
		return &ConfigError{Field: "ThinkTime", Value: cl.ThinkTime, Reason: "must be non-negative seconds"}
	}
	return nil
}

// ServeClosedLoop runs a closed-loop serving simulation against the
// compiled configuration, built entirely on the Session API: each
// client's next request is pushed from the completion event of its
// previous one. The result is deterministic in the ClosedLoop seed —
// per-client RNG streams and a single-goroutine simulation — and is the
// same ServeResult shape Serve produces, so the two load regimes
// compare directly. Cancelling ctx returns partial metrics alongside
// ctx.Err(), as in Serve.
func (e *Engine) ServeClosedLoop(ctx context.Context, cl ClosedLoop) (*ServeResult, error) {
	if err := cl.validate(); err != nil {
		return nil, err
	}
	rngs := make([]*rand.Rand, cl.Clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cl.Seed + int64(i)*1_000_003))
	}
	budget := cl.Requests
	// Client c thinks, then samples a shape from its own stream, until the
	// shared request budget is spent.
	return e.serveClosed(ctx, cl.Clients, func(c int) (Request, float64, bool) {
		if budget == 0 {
			return Request{}, 0, false
		}
		budget--
		rng := rngs[c]
		think := 0.0
		if cl.ThinkTime > 0 {
			think = rng.ExpFloat64() * cl.ThinkTime
		}
		input, output := workload.SampleShape(rng)
		return Request{Input: input, Output: output}, think, true
	})
}

// ServeScripted runs a closed-loop serving simulation over explicit
// client scripts: each client issues its script's next request when the
// previous one completes, with the script's own think time — the runner
// behind the conversation and agent prefix-sharing workloads
// (NewConversationClients, NewAgentClients), and the closed-loop
// counterpart of replaying a token-carrying trace. Requests carry the
// scripts' token IDs, so with WithPrefixCache enabled the serving loop
// shares block-aligned prompt prefixes across them. The run is
// deterministic for deterministic scripts: a single-goroutine
// simulation issues every request, and request IDs are assigned in
// issue order. Cancelling ctx returns partial metrics alongside
// ctx.Err(), as in Serve.
func (e *Engine) ServeScripted(ctx context.Context, clients []ClosedClient) (*ServeResult, error) {
	if len(clients) == 0 {
		return nil, &ConfigError{Field: "Clients", Value: len(clients), Reason: "at least one scripted client required"}
	}
	for i, c := range clients {
		if c == nil {
			return nil, &ConfigError{Field: "Clients", Value: i, Reason: "nil scripted client"}
		}
	}
	return e.serveClosed(ctx, len(clients), func(c int) (Request, float64, bool) {
		tokens, output, think, ok := clients[c].Next()
		return Request{Input: len(tokens), Output: output, Tokens: tokens}, think, ok
	})
}

// serveClosed is the closed-loop driver behind ServeClosedLoop and
// ServeScripted, built entirely on the Session API. Every client issues
// a request at time 0 and its next one when the previous completes: next
// returns client c's next request and think time, or false when c is
// done. Request IDs follow issue order, and each arrival is the
// completion clock plus the think time. The run ends when every issued
// request has completed.
func (e *Engine) serveClosed(ctx context.Context, clients int, next func(c int) (Request, float64, bool)) (*ServeResult, error) {
	s, err := e.Open(ctx)
	if err != nil {
		return nil, err
	}

	clientOf := make([]int, 0, clients)
	var pushErr error
	issue := func(c int, now float64) {
		if pushErr != nil {
			return
		}
		req, think, ok := next(c)
		if !ok {
			return
		}
		req.ID, req.Arrival = len(clientOf), now+think
		clientOf = append(clientOf, c)
		pushErr = s.Push(req)
	}

	if err := s.Subscribe(Observer{Completion: func(ev CompletionEvent) {
		// The completing request's client closes its loop.
		if ev.Request >= 0 && ev.Request < len(clientOf) {
			issue(clientOf[ev.Request], ev.Clock)
		}
	}}); err != nil {
		return nil, err
	}

	for c := 0; c < clients; c++ {
		issue(c, 0)
	}

	for pushErr == nil {
		progressed, err := s.Advance()
		if err != nil || !progressed {
			break // latched errors surface from Close
		}
	}
	res, err := s.Close()
	if err == nil && pushErr != nil {
		return res, pushErr
	}
	return res, err
}
