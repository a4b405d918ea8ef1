package events

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// recorder appends a tagged string per event so tests can compare full
// delivery sequences — kinds, payloads, and order — as one slice.
type recorder struct {
	tag    string
	events []string
}

func (r *recorder) OnStep(e Step) { r.events = append(r.events, fmt.Sprintf("%s:step:%+v", r.tag, e)) }
func (r *recorder) OnAdmission(e Admission) {
	r.events = append(r.events, fmt.Sprintf("%s:admit:%+v", r.tag, e))
}
func (r *recorder) OnFirstToken(e FirstToken) {
	r.events = append(r.events, fmt.Sprintf("%s:first:%+v", r.tag, e))
}
func (r *recorder) OnToken(e Token) {
	r.events = append(r.events, fmt.Sprintf("%s:token:%+v", r.tag, e))
}
func (r *recorder) OnPreemption(e Preemption) {
	r.events = append(r.events, fmt.Sprintf("%s:preempt:%+v", r.tag, e))
}
func (r *recorder) OnCompletion(e Completion) {
	r.events = append(r.events, fmt.Sprintf("%s:finish:%+v", r.tag, e))
}

// emitAll drives one of each event kind through obs, in lifecycle order.
func emitAll(obs Observer) {
	obs.OnAdmission(Admission{Request: 7, Clock: 0.5, Input: 32, Output: 8, Batch: 1})
	obs.OnFirstToken(FirstToken{Request: 7, Clock: 0.5, TTFT: 0.5})
	obs.OnToken(Token{Request: 7, Clock: 0.6, Index: 1})
	obs.OnStep(Step{Step: 0, Batch: 1, Clock: 0.6, Seconds: 0.1})
	obs.OnPreemption(Preemption{Request: 7, Clock: 0.7, Generated: 1})
	obs.OnCompletion(Completion{Request: 7, Clock: 1.2, TTFT: 0.5, TPOT: 0.1, E2E: 1.2, Output: 8, SLOMet: true})
}

// TestMultiFanOutOrder pins the fan-out contract the session layer
// relies on: every observer sees every event, in Subscribe (Add) order,
// with the engine observer (first argument) always delivered to first.
func TestMultiFanOutOrder(t *testing.T) {
	var order []string
	tap := func(tag string) Observer {
		return Funcs{
			Step:       func(Step) { order = append(order, tag+":step") },
			Admission:  func(Admission) { order = append(order, tag+":admit") },
			FirstToken: func(FirstToken) { order = append(order, tag+":first") },
			Token:      func(Token) { order = append(order, tag+":token") },
			Preemption: func(Preemption) { order = append(order, tag+":preempt") },
			Completion: func(Completion) { order = append(order, tag+":finish") },
		}
	}
	m := Multi(tap("engine"), tap("sub0"))
	m.Add(tap("sub1"))
	emitAll(m)

	want := []string{}
	for _, kind := range []string{"admit", "first", "token", "step", "preempt", "finish"} {
		for _, tag := range []string{"engine", "sub0", "sub1"} {
			want = append(want, tag+":"+kind)
		}
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fan-out order:\n got %v\nwant %v", order, want)
	}
}

// TestMultiSkipsNils checks Multi and Add drop nil observers instead of
// panicking at delivery time.
func TestMultiSkipsNils(t *testing.T) {
	rec := &recorder{tag: "only"}
	m := Multi(nil, rec, nil)
	m.Add(nil)
	emitAll(m)
	if len(rec.events) != 6 {
		t.Fatalf("got %d events, want 6: %v", len(rec.events), rec.events)
	}
	empty := Multi(nil, nil)
	emitAll(empty) // must not panic
}

// TestMultiPayloadFidelity checks the fan-out forwards payloads
// untouched: two independent recorders see byte-identical sequences.
func TestMultiPayloadFidelity(t *testing.T) {
	a, b := &recorder{tag: "x"}, &recorder{tag: "x"}
	emitAll(Multi(a, b))
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("observers diverged:\n a %v\n b %v", a.events, b.events)
	}
}

// TestFuncsNilCallbacks checks a zero Funcs ignores every event — the
// "leave the callback nil, it costs nothing" contract.
func TestFuncsNilCallbacks(t *testing.T) {
	emitAll(Funcs{}) // must not panic
}

// TestSynchronizedNil pins the nil-wraps-to-nil rule that keeps the
// nil-observer fast path alive through wrapping.
func TestSynchronizedNil(t *testing.T) {
	if got := Synchronized(nil); got != nil {
		t.Fatalf("Synchronized(nil) = %v, want nil", got)
	}
}

// TestSynchronizedConcurrentDelivery hammers one Synchronized-wrapped
// observer from many goroutines — the parallel-sweep sharing pattern —
// and checks under -race that every event is delivered exactly once.
// The wrapped recorder has no internal locking; only Synchronized's
// mutex keeps the slice appends safe.
func TestSynchronizedConcurrentDelivery(t *testing.T) {
	rec := &recorder{tag: "s"}
	obs := Synchronized(rec)
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				obs.OnCompletion(Completion{Request: g*rounds + i, Output: 1})
			}
		}(g)
	}
	wg.Wait()
	if len(rec.events) != goroutines*rounds {
		t.Fatalf("delivered %d events, want %d", len(rec.events), goroutines*rounds)
	}
	seen := make(map[string]bool, len(rec.events))
	for _, e := range rec.events {
		if seen[e] {
			t.Fatalf("event delivered twice: %s", e)
		}
		seen[e] = true
	}
}

// TestSynchronizedForwardsAllKinds checks the wrapper forwards each of
// the six callbacks (not just completions) with payloads intact.
func TestSynchronizedForwardsAllKinds(t *testing.T) {
	plain, wrapped := &recorder{tag: "r"}, &recorder{tag: "r"}
	emitAll(plain)
	emitAll(Synchronized(wrapped))
	if !reflect.DeepEqual(plain.events, wrapped.events) {
		t.Fatalf("Synchronized altered delivery:\n plain   %v\n wrapped %v", plain.events, wrapped.events)
	}
}
