package gateway

import (
	"context"
	"sync"
)

// OverflowPolicy says what the bridge does when a subscriber's bounded
// event buffer is full — the slow-consumer contract. Either way the
// buffer never grows: a stalled SSE connection cannot hold unbounded
// memory hostage.
type OverflowPolicy int

const (
	// DropOldest discards the oldest buffered event to admit the new one
	// and counts the loss; the consumer sees a `dropped` marker carrying
	// the count before its next delivered event. The simulation never
	// stalls. A request's terminal event cannot be lost: it is published
	// last, so it is never the oldest when an overflow happens.
	DropOldest OverflowPolicy = iota
	// Block applies backpressure instead: the simulation driver waits
	// for the consumer to free a slot, trading simulated-time progress
	// for lossless delivery. Delivery timing changes; simulated results
	// do not (the pacing-bridge determinism contract). Only Abort ends
	// the wait early; the event given up is then counted as dropped.
	Block
)

// String names the policy as the -on-full flag spells it.
func (p OverflowPolicy) String() string {
	if p == Block {
		return "block"
	}
	return "drop"
}

// Subscriber is one request's bounded event stream between the bridge's
// driver goroutine (producer) and its HTTP connection handler
// (consumer). The producer publishes lifecycle events into a fixed ring;
// the consumer pulls them with Next. Exactly one goroutine produces and
// one consumes.
type Subscriber struct {
	id  string
	req int

	mu      sync.Mutex
	buf     []Event // fixed-capacity ring
	head, n int
	dropped int // events discarded since the last Next
	closed  bool

	wake chan struct{} // 1-buffered consumer wakeup
	// space is the 1-buffered producer wakeup, nil unless the policy is
	// Block; abort (the session context's Done) ends that wait early.
	space chan struct{}
	abort <-chan struct{}
}

func newSubscriber(id string, req, buffer int, policy OverflowPolicy, abort <-chan struct{}) *Subscriber {
	s := &Subscriber{
		id:   id,
		req:  req,
		buf:  make([]Event, buffer),
		wake: make(chan struct{}, 1),
	}
	if policy == Block {
		s.space = make(chan struct{}, 1)
		s.abort = abort
	}
	return s
}

// ID returns the gateway correlation ID the subscriber streams for.
func (s *Subscriber) ID() string { return s.id }

// Request returns the session's numeric request ID.
func (s *Subscriber) Request() int { return s.req }

// publish appends one event, honouring the overflow policy: in Block
// mode it first waits for a free slot, or for Abort, which gives the
// event up as dropped. It runs on the bridge's driver goroutine, inline
// with the simulation — this is the fan-out hot path, so it must not
// allocate or format.
//
//alisa:hotpath
func (s *Subscriber) publish(ev Event) {
	s.mu.Lock()
	for s.space != nil && s.n == len(s.buf) && !s.closed {
		s.mu.Unlock()
		select {
		case <-s.space:
		case <-s.abort:
			s.mu.Lock()
			s.dropped++
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
	}
	s.insert(ev)
	s.mu.Unlock()
	notify(s.wake)
}

// terminate force-publishes a terminal event, dropping the oldest
// buffered event to make room if needed — regardless of policy, and
// without ever blocking. A dying session must be able to end every
// stream even when a consumer has stalled a full Block-mode buffer.
func (s *Subscriber) terminate(ev Event) {
	s.mu.Lock()
	s.insert(ev)
	s.mu.Unlock()
	notify(s.wake)
}

// insert appends ev to the ring under s.mu, discarding and counting the
// oldest event when the ring is full; a closed subscriber takes nothing.
//
//alisa:hotpath
func (s *Subscriber) insert(ev Event) {
	if s.closed {
		return
	}
	if s.n == len(s.buf) {
		s.head++
		if s.head == len(s.buf) {
			s.head = 0
		}
		s.n--
		s.dropped++
	}
	i := s.head + s.n
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	s.buf[i] = ev
	s.n++
}

// Next pops the oldest buffered event, blocking until one is available
// or ctx is done. dropped is how many events were discarded (DropOldest
// overflow) before the returned event — a non-zero count is surfaced to
// the client as a marker ahead of the event. more reports whether the
// ring still held an event after the pop, so the consumer may batch the
// returned event with the next one. ok is false only when ctx ended the
// wait.
func (s *Subscriber) Next(ctx context.Context) (ev Event, dropped int, more, ok bool) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			ev = s.buf[s.head]
			s.head++
			if s.head == len(s.buf) {
				s.head = 0
			}
			s.n--
			more = s.n > 0
			dropped = s.dropped
			s.dropped = 0
			s.mu.Unlock()
			notify(s.space)
			return ev, dropped, more, true
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-ctx.Done():
			return Event{}, 0, false, false
		}
	}
}

// Close marks the consumer gone: pending and future publishes become
// no-ops and a producer blocked on backpressure is released. Idempotent;
// called by the handler when its connection ends and by the bridge when
// the session fails.
func (s *Subscriber) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	notify(s.space)
}

// notify posts a wakeup on a 1-buffered channel without blocking; a
// wakeup already pending (or a nil channel) makes it a no-op.
func notify(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}
