// Package events defines the streaming observer contract shared by the
// lockstep engine (internal/core) and the serving simulator
// (internal/serve). An Observer is a struct of optional callbacks, one
// per event kind — decode steps, request admissions, first tokens,
// generated tokens, preemptions, and completions — that receive progress
// as a run unfolds instead of only the final Result, so CLIs can show
// live progress and harnesses can collect per-cell timing without
// re-parsing rendered reports.
//
// All times are simulated seconds on the run's clock, not wall time.
// Events are emitted synchronously from the single-goroutine event loops,
// in deterministic order: replaying a run replays its event sequence
// exactly. A callback left nil costs one nil check per event: the loop
// builds no event for it. Multi composes observers per kind, and an
// observer shared across concurrent runs (a parallel sweep) can be
// wrapped with Synchronized to serialize delivery instead of locking
// internally.
package events

import "sync"

// Step reports one completed decode step (lockstep engine) or one
// continuous-batching decode iteration (serving simulator).
type Step struct {
	// Step is the 0-based decode-step index within the current wave
	// (lockstep engine) or the 0-based iteration index (serving loop).
	Step int
	// Batch is the number of sequences the step advanced.
	Batch int
	// Clock is the simulated time at the end of the step.
	Clock float64
	// Seconds is the simulated duration of the step itself.
	Seconds float64
}

// Admission reports a request joining the decode batch after prefill.
type Admission struct {
	Request int // request ID
	// Clock is the simulated admission-complete time (end of prefill).
	Clock float64
	// Wait is the time the request spent queued since its arrival,
	// re-prefill work after preemption included.
	Wait          float64
	Input, Output int
	// Batch is the decode-batch occupancy after the admission.
	Batch int
	// PrefixProbed reports whether the serving loop's shared prefix cache
	// probed this request — true only when the cache is on and the
	// request carries token IDs. The two fields below are zero otherwise.
	PrefixProbed bool
	// CachedTokens is how many leading prompt tokens were served from the
	// shared prefix cache instead of being prefilled.
	CachedTokens int
	// SharedBytes is the cache's simulated resident bytes right after the
	// admission (the request's own prefix grafted in).
	SharedBytes int64
}

// FirstToken reports a request producing its first output token — the
// end of prefill after its (final) admission. A preempted request emits
// a new FirstToken after each readmission; the last one is the TTFT the
// metrics report.
type FirstToken struct {
	Request int
	Clock   float64
	// TTFT is arrival → this first token, queueing included.
	TTFT float64
}

// Token reports one generated output token of one request — the
// finest-grained lifecycle event, emitted once per active sequence per
// decode iteration. Streaming clients subscribe to it to model
// token-by-token delivery; everyone else leaves the callback nil, which
// costs nothing.
type Token struct {
	Request int
	Clock   float64
	// Index is the 1-based generated-token index within the request
	// (restarts from 1 after a preemption, like the generation itself).
	Index int
}

// Preemption reports a sequence losing its KV under memory pressure; the
// request restarts from its prompt on readmission.
type Preemption struct {
	Request int
	Clock   float64
	// Generated is how many tokens the sequence had decoded when its KV
	// was dropped — all of them are regenerated after readmission.
	Generated int
}

// Completion reports a request finishing its final decode step.
type Completion struct {
	Request int
	Clock   float64
	// TTFT and TPOT are the request's final latency metrics: arrival to
	// first token, and mean seconds per output token after the first.
	TTFT, TPOT float64
	// E2E is the request's end-to-end latency: arrival → completion.
	E2E float64
	// Output is the request's generated-token count — the tokens a
	// windowed goodput metric credits to this completion.
	Output int
	// SLOMet reports whether the request met both serving SLOs — the
	// goodput criterion, computed by the serving core with exactly the
	// predicate the final metrics use.
	SLOMet bool
	// Preemptions is how many times the request was preempted and
	// restarted before completing.
	Preemptions int
}

// Observer is a set of optional callbacks, one per event kind, in the
// style of net/http/httptrace.ClientTrace. Callbacks run inline on the
// simulation loop, so they must be fast. They need not be
// goroutine-safe — each run delivers its events from one goroutine —
// but one Observer attached to several concurrent runs must synchronise
// (see Synchronized). A nil field ignores its events, and the emitting
// loop checks it before building the event, so the zero Observer
// observes nothing at the cost of one nil check per event.
type Observer struct {
	Step       func(Step)
	Admission  func(Admission)
	FirstToken func(FirstToken)
	Token      func(Token)
	Preemption func(Preemption)
	Completion func(Completion)
}

// Multi composes obs per event kind. A kind no observer sets stays nil;
// a kind exactly one observer sets is that callback itself; otherwise
// one callback calls them in argument order.
func Multi(obs ...Observer) Observer {
	return Observer{
		Step:       fan(obs, func(o Observer) func(Step) { return o.Step }),
		Admission:  fan(obs, func(o Observer) func(Admission) { return o.Admission }),
		FirstToken: fan(obs, func(o Observer) func(FirstToken) { return o.FirstToken }),
		Token:      fan(obs, func(o Observer) func(Token) { return o.Token }),
		Preemption: fan(obs, func(o Observer) func(Preemption) { return o.Preemption }),
		Completion: fan(obs, func(o Observer) func(Completion) { return o.Completion }),
	}
}

// fan composes one kind's callbacks, read from obs by kind, for Multi.
func fan[E any](obs []Observer, kind func(Observer) func(E)) func(E) {
	var fs []func(E)
	for _, o := range obs {
		if f := kind(o); f != nil {
			fs = append(fs, f)
		}
	}
	switch len(fs) {
	case 0:
		return nil
	case 1:
		return fs[0]
	}
	return func(e E) {
		for _, f := range fs {
			f(e)
		}
	}
}

// Synchronized wraps obs so callbacks arriving from several goroutines —
// an observer shared across the concurrent cells of a parallel sweep —
// are serialized through one mutex shared by every kind: each callback
// runs exclusively, so the wrapped observer needs no internal locking.
// Events from different cells interleave in completion order (cells are
// independent runs), but every individual event is delivered exactly
// once and atomically. Unset callbacks stay unset.
func Synchronized(obs Observer) Observer {
	mu := new(sync.Mutex)
	return Observer{
		Step:       locked(mu, obs.Step),
		Admission:  locked(mu, obs.Admission),
		FirstToken: locked(mu, obs.FirstToken),
		Token:      locked(mu, obs.Token),
		Preemption: locked(mu, obs.Preemption),
		Completion: locked(mu, obs.Completion),
	}
}

// locked wraps f under mu for Synchronized; a nil f stays nil.
func locked[E any](mu *sync.Mutex, f func(E)) func(E) {
	if f == nil {
		return nil
	}
	return func(e E) {
		mu.Lock()
		defer mu.Unlock()
		f(e)
	}
}
