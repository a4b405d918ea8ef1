package gateway

import (
	"context"
	"sync"
)

// Deprecated: drop-oldest is the gateway's only slow-consumer policy
// (see Subscriber); Config.OnFull accepts DropOldest alone.
type OverflowPolicy int

// Deprecated: DropOldest is the only OverflowPolicy, and the default.
const DropOldest OverflowPolicy = 0

// Subscriber is one request's bounded event stream between the bridge's
// driver goroutine (producer) and its HTTP connection handler
// (consumer). The producer publishes lifecycle events into a fixed ring;
// the consumer pulls them with Next. Exactly one goroutine produces and
// one consumes.
//
// The producer never waits. When the ring is full, publishing discards
// the oldest buffered event and counts the loss; the consumer sees a
// `dropped` marker carrying the count before its next delivered event.
// A request's terminal event is published last, so it is never the
// oldest when an overflow happens and always arrives. A consumer that
// stops reading therefore loses events but stalls neither the
// simulation nor any other stream, and its buffer never grows.
type Subscriber struct {
	id  string
	req int

	mu      sync.Mutex
	buf     []Event // fixed-capacity ring
	head, n int
	dropped int // events discarded since the last Next
	closed  bool

	wake chan struct{} // 1-buffered consumer wakeup
}

func newSubscriber(id string, req, buffer int) *Subscriber {
	return &Subscriber{
		id:   id,
		req:  req,
		buf:  make([]Event, buffer),
		wake: make(chan struct{}, 1),
	}
}

// ID returns the gateway correlation ID the subscriber streams for.
func (s *Subscriber) ID() string { return s.id }

// Request returns the session's numeric request ID.
func (s *Subscriber) Request() int { return s.req }

// publish appends one event to the ring, discarding and counting the
// oldest event when the ring is full; a closed subscriber takes nothing.
// It runs on the bridge's driver goroutine, inline with the simulation —
// this is the fan-out hot path, so it must not allocate, format or wait.
//
//alisa:hotpath
func (s *Subscriber) publish(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
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
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// Next pops the oldest buffered event, blocking until one is available
// or ctx is done. dropped is how many events were discarded (ring
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

// Close marks the consumer gone: later publishes become no-ops.
// Idempotent; the handler calls it when its connection ends.
func (s *Subscriber) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}
