package alisa

import "repro/internal/events"

// Observer receives streaming run events — decode steps, request
// admissions, first tokens, generated tokens, preemptions, and
// completions — as a simulation unfolds, instead of only the final
// report. It is a struct of optional callbacks, one per event kind:
// set the kinds you need and leave the rest nil, which costs one nil
// check per event. The zero Observer observes nothing. Attach one to an
// Engine with WithObserver; it then sees events from both Simulate (step
// events) and Serve (every kind), delivered synchronously and in
// deterministic order from the single-goroutine simulation loops. All
// event times are simulated seconds, not wall time.
type Observer = events.Observer

// Deprecated: use Observer, which this former name now aliases.
type ObserverFuncs = Observer

// StepEvent reports one completed decode step (Simulate) or one
// continuous-batching decode iteration (Serve).
type StepEvent = events.Step

// AdmissionEvent reports a request joining the decode batch (Serve).
type AdmissionEvent = events.Admission

// FirstTokenEvent reports a request producing its first output token —
// the end of prefill after its (final) admission (Serve and Session).
type FirstTokenEvent = events.FirstToken

// TokenEvent reports one generated output token of one request, emitted
// once per active sequence per decode iteration (Serve and Session).
// Leave the callback nil unless you need token-level streaming; the
// loop then builds no token events at all.
type TokenEvent = events.Token

// PreemptionEvent reports a sequence losing its KV under memory pressure
// (Serve).
type PreemptionEvent = events.Preemption

// CompletionEvent reports a request finishing its final decode step
// (Serve).
type CompletionEvent = events.Completion

// SynchronizedObserver wraps an observer so callbacks arriving from
// several goroutines — one observer shared across the concurrent cells
// of ServeMany or a `-parallel` sweep — are serialized through one
// mutex; the wrapped observer then needs no internal locking. ServeMany
// applies this wrapping to the engine's observer automatically; use it
// directly when sharing one observer across engines run concurrently.
// Unset callbacks stay unset.
func SynchronizedObserver(o Observer) Observer { return events.Synchronized(o) }
