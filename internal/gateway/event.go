// Package gateway puts a network wire on the streaming serving
// simulation: an HTTP server exposing an OpenAI-style completions
// endpoint where every request becomes a Session.Push and the request's
// lifecycle events stream back as server-sent events, plus a metrics
// snapshot endpoint backed by the session's rolling window.
//
// The core piece is the pacing bridge (Bridge): one driver goroutine
// owns the alisa.Session — which is single-goroutine by contract — and
// every mutable field of the bridge but one atomic admission gate, and
// advances simulated time at a configurable dilation of the wall clock.
// Concurrent HTTP handlers reach it only through a command channel,
// which the driver serves before every simulation turn, that gate, the
// run's outcome once the driver has exited, and per-request Subscriber
// buffers. Simulated results are a pure function of the pushed
// requests; the dilation factor changes only when events are
// *delivered*, never what they contain (DESIGN.md §14).
package gateway

import "time"

// Kind enumerates the wire event types a request's subscriber stream
// carries. The string values double as the SSE `event:` names.
type Kind string

const (
	// KindAdmission reports the request joining the decode batch.
	KindAdmission Kind = "admission"
	// KindFirstToken reports the end of prefill — the first output token.
	KindFirstToken Kind = "first_token"
	// KindToken reports one generated output token.
	KindToken Kind = "token"
	// KindPreemption reports the request losing its KV under pressure.
	KindPreemption Kind = "preemption"
	// KindCompletion reports the request finishing; it is terminal.
	KindCompletion Kind = "completion"
	// KindError reports a failed session (cancellation, fatal simulation
	// error); it is terminal and delivered to every live subscriber.
	KindError Kind = "error"
)

// Terminal reports whether the kind ends a request's event stream.
func (k Kind) Terminal() bool { return k == KindCompletion || k == KindError }

// Event is one lifecycle event of one gateway request, as buffered
// between the simulation driver and a connection handler. It is a flat
// union over the kinds — only the fields a kind documents are
// meaningful — so the subscriber ring stores events by value with no
// per-event allocation. The connection handler's stream encoder writes
// each kind's documented fields as JSON; see sseEncoder.
type Event struct {
	Kind    Kind
	Request int     // session request ID
	Clock   float64 // simulated seconds

	// At is the event's wall-clock delivery deadline under a paced
	// (-time-scale > 0) bridge: the wall instant corresponding to Clock.
	// A turn emits all its events at once, so without this stamp a
	// consumer would see everything at the turn's start; the HTTP layer
	// holds each event until At before writing it. Zero means deliver
	// immediately (unpaced bridge, or the error event of a failed
	// session).
	At time.Time

	// Admission.
	Wait          float64
	Input, Output int
	Batch         int

	// FirstToken and Completion.
	TTFT float64

	// Token.
	Index int

	// Preemption.
	Generated int

	// Completion.
	TPOT        float64
	E2E         float64
	SLOMet      bool
	Preemptions int

	// Error.
	Err string
}
