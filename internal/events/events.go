// Package events defines the streaming observer contract shared by the
// lockstep engine (internal/core) and the serving simulator
// (internal/serve). An Observer receives progress events as a run
// unfolds — decode steps, request admissions, preemptions, and
// completions — instead of only the final Result, so CLIs can show live
// progress and harnesses can collect per-cell timing without re-parsing
// rendered reports.
//
// All times are simulated seconds on the run's clock, not wall time.
// Events are emitted synchronously from the single-goroutine event loops,
// in deterministic order: replaying a run replays its event sequence
// exactly, and a nil observer costs nothing. An observer
// shared across concurrent runs (a parallel sweep) can be wrapped with
// Synchronized to serialize delivery instead of locking internally.
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

// Observer receives streaming run events. Implementations must be fast:
// callbacks run inline on the simulation loop. They need not be
// goroutine-safe — each run delivers its events from one goroutine — but
// one Observer attached to several concurrent runs must synchronise
// internally.
type Observer interface {
	OnStep(Step)
	OnAdmission(Admission)
	OnFirstToken(FirstToken)
	OnToken(Token)
	OnPreemption(Preemption)
	OnCompletion(Completion)
}

// Funcs adapts a set of optional callbacks to the Observer interface;
// nil fields ignore their events.
type Funcs struct {
	Step       func(Step)
	Admission  func(Admission)
	FirstToken func(FirstToken)
	Token      func(Token)
	Preemption func(Preemption)
	Completion func(Completion)
}

// OnStep implements Observer.
func (f Funcs) OnStep(e Step) {
	if f.Step != nil {
		f.Step(e)
	}
}

// OnAdmission implements Observer.
func (f Funcs) OnAdmission(e Admission) {
	if f.Admission != nil {
		f.Admission(e)
	}
}

// OnFirstToken implements Observer.
func (f Funcs) OnFirstToken(e FirstToken) {
	if f.FirstToken != nil {
		f.FirstToken(e)
	}
}

// OnToken implements Observer.
func (f Funcs) OnToken(e Token) {
	if f.Token != nil {
		f.Token(e)
	}
}

// OnPreemption implements Observer.
func (f Funcs) OnPreemption(e Preemption) {
	if f.Preemption != nil {
		f.Preemption(e)
	}
}

// OnCompletion implements Observer.
func (f Funcs) OnCompletion(e Completion) {
	if f.Completion != nil {
		f.Completion(e)
	}
}

// Synchronized wraps obs so callbacks arriving from several goroutines —
// an observer shared across the concurrent cells of a parallel sweep —
// are serialized through one mutex: each callback runs exclusively, so
// the wrapped observer needs no internal locking. Events from different
// cells interleave in completion order (cells are independent runs), but
// every individual event is delivered exactly once and atomically.
// A nil observer wraps to nil.
func Synchronized(obs Observer) Observer {
	if obs == nil {
		return nil
	}
	return &synced{obs: obs}
}

type synced struct {
	mu  sync.Mutex
	obs Observer
}

func (s *synced) OnStep(e Step) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.OnStep(e)
}

func (s *synced) OnAdmission(e Admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.OnAdmission(e)
}

func (s *synced) OnFirstToken(e FirstToken) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.OnFirstToken(e)
}

func (s *synced) OnToken(e Token) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.OnToken(e)
}

func (s *synced) OnPreemption(e Preemption) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.OnPreemption(e)
}

func (s *synced) OnCompletion(e Completion) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs.OnCompletion(e)
}

// Fanout delivers every event to each of its observers in order.
type Fanout struct{ obs []Observer }

// Multi returns a Fanout over obs, in order; nil entries are skipped.
func Multi(obs ...Observer) *Fanout {
	f := &Fanout{obs: make([]Observer, 0, len(obs))}
	for _, o := range obs {
		f.Add(o)
	}
	return f
}

// Add appends obs to the end of the fan-out; a nil observer is skipped.
func (f *Fanout) Add(obs Observer) {
	if obs != nil {
		f.obs = append(f.obs, obs)
	}
}

// OnStep implements Observer.
func (f *Fanout) OnStep(e Step) {
	for _, o := range f.obs {
		o.OnStep(e)
	}
}

// OnAdmission implements Observer.
func (f *Fanout) OnAdmission(e Admission) {
	for _, o := range f.obs {
		o.OnAdmission(e)
	}
}

// OnFirstToken implements Observer.
func (f *Fanout) OnFirstToken(e FirstToken) {
	for _, o := range f.obs {
		o.OnFirstToken(e)
	}
}

// OnToken implements Observer.
func (f *Fanout) OnToken(e Token) {
	for _, o := range f.obs {
		o.OnToken(e)
	}
}

// OnPreemption implements Observer.
func (f *Fanout) OnPreemption(e Preemption) {
	for _, o := range f.obs {
		o.OnPreemption(e)
	}
}

// OnCompletion implements Observer.
func (f *Fanout) OnCompletion(e Completion) {
	for _, o := range f.obs {
		o.OnCompletion(e)
	}
}
