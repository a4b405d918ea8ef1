package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"time"

	alisa "repro"
)

// Config assembles a Gateway.
type Config struct {
	// Engine is the compiled simulation configuration every request runs
	// against. Required.
	Engine *alisa.Engine
	// TimeScale is the pacing dilation: how many simulated seconds pass
	// per wall-clock second. 1 is real time, 10 runs the simulation 10×
	// faster than the wall, 0 means as fast as possible (no pacing).
	TimeScale float64
	// Buffer is the per-connection event-buffer capacity; 0 means 64. A
	// stream that overflows it loses its oldest events (see Subscriber):
	// to deliver every event, set it above a stream's event count.
	Buffer int
	// Deprecated: a full buffer always drops its oldest event (see
	// Subscriber); OnFull accepts only DropOldest, the zero value.
	OnFull OverflowPolicy
	// Hold starts the gateway gated: requests are accepted and queued on
	// the simulated timeline, but the clock does not advance until
	// POST /v1/admin/release (or Gateway.Release). Scripted load uses it
	// to make results independent of submission timing.
	Hold bool
	// Logger receives the structured request/lifecycle log, each line
	// carrying the request's correlation ID. Nil discards.
	Logger *slog.Logger
}

// Gateway is the HTTP face of one serving session: an OpenAI-style
// completions endpoint streaming lifecycle events over SSE, a metrics
// snapshot endpoint, and health/readiness probes, all backed by the
// pacing Bridge.
//
//	POST /v1/completions       submit; SSE stream or blocking JSON
//	GET  /v1/metrics           rolling-window snapshot + queue depths
//	GET  /healthz              process liveness (always 200)
//	GET  /readyz               503 once draining or failed
//	POST /v1/admin/release     open a held gateway
type Gateway struct {
	bridge *Bridge
	model  string
	scale  float64
	mux    *http.ServeMux
}

// New validates cfg, opens a session against the engine, and starts the
// pacing driver. The returned Gateway is an http.Handler; the caller
// owns the listener and must Drain on shutdown.
func New(cfg Config) (*Gateway, error) {
	if cfg.Engine == nil {
		return nil, &alisa.ConfigError{Field: "Engine", Value: nil, Reason: "gateway needs a compiled engine"}
	}
	if cfg.TimeScale < 0 || math.IsNaN(cfg.TimeScale) || math.IsInf(cfg.TimeScale, 0) {
		return nil, &alisa.ConfigError{Field: "TimeScale", Value: cfg.TimeScale, Reason: "must be a finite dilation ≥ 0 (0 = as fast as possible)"}
	}
	buffer := cfg.Buffer
	if buffer == 0 {
		buffer = 64
	}
	if buffer < 0 {
		return nil, &alisa.ConfigError{Field: "Buffer", Value: cfg.Buffer, Reason: "per-connection event buffer must be positive"}
	}
	if cfg.OnFull != DropOldest {
		return nil, &alisa.ConfigError{Field: "OnFull", Value: cfg.OnFull, Reason: "drop-oldest is the only overflow policy"}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	bridge, err := newBridge(cfg.Engine, cfg.TimeScale, buffer, cfg.Hold, log)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		bridge: bridge,
		model:  cfg.Engine.Model(),
		scale:  cfg.TimeScale,
		mux:    http.NewServeMux(),
	}
	g.mux.HandleFunc("POST /v1/completions", g.handleCompletions)
	g.mux.HandleFunc("GET /v1/metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /readyz", g.handleReadyz)
	g.mux.HandleFunc("POST /v1/admin/release", g.handleRelease)
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Drain gracefully shuts the gateway down; see Bridge.Drain.
func (g *Gateway) Drain(ctx context.Context) (*alisa.ServeResult, error) { return g.bridge.Drain(ctx) }

// Abort hard-stops the session; see Bridge.Abort.
func (g *Gateway) Abort() { g.bridge.Abort() }

// Release opens a held gateway; see Bridge.Release.
func (g *Gateway) Release(ctx context.Context) error { return g.bridge.Release(ctx) }

// Accepting reports whether new completions are admitted.
func (g *Gateway) Accepting() bool { return g.bridge.Accepting() }

// maxBodyBytes caps a POST /v1/completions body. A well-formed request is
// a few hundred bytes; a body past the cap is answered 413 instead of
// being decoded without bound.
const maxBodyBytes = 1 << 20

// completionRequest is the POST /v1/completions body. Exactly one of
// prompt / input_tokens sets the prompt length (the simulator costs
// token counts, so a prompt string is measured by whitespace-split
// length). An explicit arrival pins the request to the simulated
// timeline; omitted, it is stamped with the simulated clock at
// admission — live load.
type completionRequest struct {
	Model       string   `json:"model"`
	Prompt      string   `json:"prompt"`
	InputTokens int      `json:"input_tokens"`
	MaxTokens   int      `json:"max_tokens"`
	Stream      bool     `json:"stream"`
	Arrival     *float64 `json:"arrival"`
	ID          string   `json:"id"`
}

// completionResponse is the blocking (stream=false) success body.
type completionResponse struct {
	ID           string  `json:"id"`
	Request      int     `json:"request"`
	Model        string  `json:"model"`
	InputTokens  int     `json:"input_tokens"`
	OutputTokens int     `json:"output_tokens"`
	TTFT         float64 `json:"ttft"`
	TPOT         float64 `json:"tpot"`
	E2E          float64 `json:"e2e"`
	SLOMet       bool    `json:"slo_met"`
	Preemptions  int     `json:"preemptions"`
	Clock        float64 `json:"clock"`
}

// metricsResponse is the GET /v1/metrics body: identification, then the
// bridge Status — queue depths and the rolling window in the
// WindowSnapshot wire format.
type metricsResponse struct {
	Model     string  `json:"model"`
	TimeScale float64 `json:"time_scale"`
	Status
}

// errorBody is the structured error envelope, OpenAI-style: a type, the
// offending parameter when one is identifiable (ConfigError field-error
// style), and a human message.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Type    string `json:"type"`
	Param   string `json:"param,omitempty"`
	Message string `json:"message"`
}

func (g *Gateway) handleCompletions(w http.ResponseWriter, r *http.Request) {
	spec, stream, err := g.parseCompletion(w, r)
	if err != nil {
		g.writeError(w, err)
		return
	}
	sub, err := g.bridge.Submit(r.Context(), spec)
	if err != nil {
		g.writeError(w, err)
		return
	}
	defer sub.Close()
	if stream {
		g.streamCompletion(w, r, sub)
	} else {
		g.blockCompletion(w, r, sub, spec)
	}
}

// parseCompletion decodes the body, read through a maxBodyBytes cap, and
// validates it into a SubmitSpec. A body past the cap fails with the
// *http.MaxBytesError writeError answers 413; every other failure is an
// *alisa.ConfigError whose Field names the wire parameter, so the error
// envelope's param is machine-usable.
func (g *Gateway) parseCompletion(w http.ResponseWriter, r *http.Request) (SubmitSpec, bool, error) {
	var creq completionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&creq); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return SubmitSpec{}, false, tooLarge
		}
		return SubmitSpec{}, false, &alisa.ConfigError{Field: "body", Value: "json", Reason: err.Error()}
	}
	if creq.Model != "" && creq.Model != g.model {
		return SubmitSpec{}, false, &alisa.ConfigError{Field: "model", Value: creq.Model,
			Reason: fmt.Sprintf("this gateway serves %q", g.model)}
	}
	input := creq.InputTokens
	switch {
	case creq.Prompt != "" && creq.InputTokens > 0:
		return SubmitSpec{}, false, &alisa.ConfigError{Field: "input_tokens", Value: creq.InputTokens,
			Reason: "give prompt or input_tokens, not both"}
	case creq.Prompt != "":
		input = len(strings.Fields(creq.Prompt))
	}
	if input <= 0 {
		return SubmitSpec{}, false, &alisa.ConfigError{Field: "input_tokens", Value: input,
			Reason: "prompt or input_tokens must supply a positive prompt length"}
	}
	if creq.MaxTokens <= 0 {
		return SubmitSpec{}, false, &alisa.ConfigError{Field: "max_tokens", Value: creq.MaxTokens,
			Reason: "must be positive"}
	}
	if a := creq.Arrival; a != nil && (*a < 0 || math.IsNaN(*a) || math.IsInf(*a, 0)) {
		return SubmitSpec{}, false, &alisa.ConfigError{Field: "arrival", Value: *a,
			Reason: "must be a finite simulated time ≥ 0"}
	}
	return SubmitSpec{ID: creq.ID, Input: input, Output: creq.MaxTokens, Arrival: creq.Arrival}, creq.Stream, nil
}

// streamCompletion writes the request's lifecycle as SSE until its
// terminal event (or the client goes away). Frames collect in the
// stream's encoder and go out with one write and one flush per burst: a
// token waits in the buffer only while another event is already queued
// behind it, every other event but the terminal one is flushed at once,
// and what is held is flushed before the handler sleeps until a paced
// event's wall deadline. The terminal burst and [DONE] are written
// unflushed and leave with the response's end.
func (g *Gateway) streamCompletion(w http.ResponseWriter, r *http.Request, sub *Subscriber) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Request-Id", sub.ID())
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	enc := newSSEEncoder(sub.ID(), sub.Request())
	for {
		ev, dropped, more, ok := sub.Next(r.Context())
		if !ok {
			return // client disconnected; deferred Close unhooks the fan-out
		}
		if len(enc.buf) > 0 && !ev.At.IsZero() && time.Until(ev.At) > 0 {
			if enc.flush(w, flusher) != nil {
				return
			}
		}
		if !holdUntil(r.Context(), ev.At) {
			return
		}
		if dropped > 0 {
			enc.dropped(dropped)
		}
		if err := enc.event(ev); err != nil {
			// The frames ahead of the one that failed still go out.
			_ = enc.flush(w, flusher)
			return
		}
		if ev.Kind == KindToken && more {
			continue
		}
		if ev.Kind.Terminal() {
			// No flush: the server sends the last burst and [DONE] with
			// the chunked terminator in one write when the handler
			// returns, so a client that stops reading at [DONE] finds
			// the body at EOF and keeps its connection.
			enc.done()
			_, _ = w.Write(enc.buf) // the stream ends here either way
			return
		}
		if enc.flush(w, flusher) != nil {
			return
		}
	}
}

// blockCompletion waits for the terminal event and answers with one JSON
// body — the stream=false path.
func (g *Gateway) blockCompletion(w http.ResponseWriter, r *http.Request, sub *Subscriber, spec SubmitSpec) {
	for {
		ev, _, _, ok := sub.Next(r.Context())
		if !ok {
			return
		}
		if ev.Kind.Terminal() && !holdUntil(r.Context(), ev.At) {
			return
		}
		switch ev.Kind {
		case KindCompletion:
			writeJSON(w, http.StatusOK, completionResponse{
				ID: sub.ID(), Request: sub.Request(), Model: g.model,
				InputTokens: spec.Input, OutputTokens: spec.Output,
				TTFT: ev.TTFT, TPOT: ev.TPOT, E2E: ev.E2E,
				SLOMet: ev.SLOMet, Preemptions: ev.Preemptions, Clock: ev.Clock,
			})
			return
		case KindError:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: errorInfo{
				Type: "internal_error", Message: ev.Err,
			}})
			return
		}
	}
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, err := g.bridge.Status(r.Context())
	if err != nil {
		g.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, metricsResponse{Model: g.model, TimeScale: g.scale, Status: st})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !g.bridge.Accepting() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

func (g *Gateway) handleRelease(w http.ResponseWriter, r *http.Request) {
	if err := g.bridge.Release(r.Context()); err != nil {
		g.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "released\n")
}

// writeError maps an error onto the structured envelope: a body past
// maxBodyBytes is 413 on param "body"; validation failures (ConfigError,
// Push contract violations) are 400 with the offending param; shutdown
// states (draining, closed session, failed session) are 503 with
// Retry-After so load generators back off.
func (g *Gateway) writeError(w http.ResponseWriter, err error) {
	var ce *alisa.ConfigError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: errorInfo{
			Type: "invalid_request_error", Param: "body",
			Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
		}})
	case errors.As(err, &ce):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: errorInfo{
			Type: "invalid_request_error", Param: ce.Field, Message: err.Error(),
		}})
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed),
		errors.Is(err, ErrFailed), errors.Is(err, alisa.ErrSessionClosed):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errorInfo{
			Type: "unavailable_error", Message: err.Error(),
		}})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: errorInfo{
			Type: "invalid_request_error", Message: err.Error(),
		}})
	}
}

// holdUntil blocks until a paced event's wall-clock delivery deadline
// (a zero deadline passes immediately); false means the client's context
// ended the wait.
func holdUntil(ctx context.Context, at time.Time) bool {
	if at.IsZero() {
		return true
	}
	d := time.Until(at)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	io.WriteString(w, "\n")
}
