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

// observer sets every callback of an Observer to append to r.
func (r *recorder) observer() Observer {
	add := func(kind string, e any) { r.events = append(r.events, fmt.Sprintf("%s:%s:%+v", r.tag, kind, e)) }
	return Observer{
		Step:       func(e Step) { add("step", e) },
		Admission:  func(e Admission) { add("admit", e) },
		FirstToken: func(e FirstToken) { add("first", e) },
		Token:      func(e Token) { add("token", e) },
		Preemption: func(e Preemption) { add("preempt", e) },
		Completion: func(e Completion) { add("finish", e) },
	}
}

// emit delivers e to f when f is set, as the event loops do.
func emit[E any](f func(E), e E) {
	if f != nil {
		f(e)
	}
}

// emitAll drives one of each event kind through obs, in lifecycle order.
func emitAll(obs Observer) {
	emit(obs.Admission, Admission{Request: 7, Clock: 0.5, Input: 32, Output: 8, Batch: 1})
	emit(obs.FirstToken, FirstToken{Request: 7, Clock: 0.5, TTFT: 0.5})
	emit(obs.Token, Token{Request: 7, Clock: 0.6, Index: 1})
	emit(obs.Step, Step{Step: 0, Batch: 1, Clock: 0.6, Seconds: 0.1})
	emit(obs.Preemption, Preemption{Request: 7, Clock: 0.7, Generated: 1})
	emit(obs.Completion, Completion{Request: 7, Clock: 1.2, TTFT: 0.5, TPOT: 0.1, E2E: 1.2, Output: 8, SLOMet: true})
}

// TestMultiFanOutOrder pins the fan-out contract the session layer
// relies on: every observer sees every event, in argument order, and a
// composed observer composes again without reordering.
func TestMultiFanOutOrder(t *testing.T) {
	var order []string
	tap := func(tag string) Observer {
		return Observer{
			Step:       func(Step) { order = append(order, tag+":step") },
			Admission:  func(Admission) { order = append(order, tag+":admit") },
			FirstToken: func(FirstToken) { order = append(order, tag+":first") },
			Token:      func(Token) { order = append(order, tag+":token") },
			Preemption: func(Preemption) { order = append(order, tag+":preempt") },
			Completion: func(Completion) { order = append(order, tag+":finish") },
		}
	}
	emitAll(Multi(Multi(tap("engine"), tap("sub0")), tap("sub1")))

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

// TestMultiSkipsUnset checks Multi leaves a kind nobody sets nil — so
// the loop still skips building its event — and delivers every set kind
// once when the other arguments set nothing.
func TestMultiSkipsUnset(t *testing.T) {
	rec := &recorder{tag: "only"}
	emitAll(Multi(Observer{}, rec.observer(), Observer{}))
	if len(rec.events) != 6 {
		t.Fatalf("got %d events, want 6: %v", len(rec.events), rec.events)
	}
	tokens := 0
	m := Multi(Observer{}, Observer{Token: func(Token) { tokens++ }})
	if m.Step != nil || m.Admission != nil || m.FirstToken != nil || m.Preemption != nil || m.Completion != nil {
		t.Fatalf("unset kinds composed to non-nil callbacks: %+v", m)
	}
	emitAll(m)
	if tokens != 1 {
		t.Fatalf("token callback ran %d times, want 1", tokens)
	}
	if e := Multi(); e.Step != nil || e.Token != nil || e.Completion != nil {
		t.Fatalf("Multi() = %+v, want the zero Observer", e)
	}
}

// TestMultiPayloadFidelity checks the fan-out forwards payloads
// untouched: two independent recorders see byte-identical sequences.
func TestMultiPayloadFidelity(t *testing.T) {
	a, b := &recorder{tag: "x"}, &recorder{tag: "x"}
	emitAll(Multi(a.observer(), b.observer()))
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("observers diverged:\n a %v\n b %v", a.events, b.events)
	}
}

// TestSynchronizedUnset checks wrapping leaves unset callbacks nil, so
// the loop's skip-the-event fast path survives Synchronized.
func TestSynchronizedUnset(t *testing.T) {
	s := Synchronized(Observer{Completion: func(Completion) {}})
	if s.Step != nil || s.Admission != nil || s.FirstToken != nil || s.Token != nil || s.Preemption != nil {
		t.Fatalf("Synchronized set unset callbacks: %+v", s)
	}
	if s.Completion == nil {
		t.Fatal("Synchronized dropped the completion callback")
	}
}

// TestSynchronizedConcurrentDelivery hammers one Synchronized-wrapped
// observer from many goroutines — the parallel-sweep sharing pattern —
// and checks under -race that every event is delivered exactly once.
// The wrapped recorder has no internal locking; only Synchronized's
// mutex keeps the slice appends safe.
func TestSynchronizedConcurrentDelivery(t *testing.T) {
	rec := &recorder{tag: "s"}
	obs := Synchronized(rec.observer())
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				obs.Completion(Completion{Request: g*rounds + i, Output: 1})
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
	emitAll(plain.observer())
	emitAll(Synchronized(wrapped.observer()))
	if !reflect.DeepEqual(plain.events, wrapped.events) {
		t.Fatalf("Synchronized altered delivery:\n plain   %v\n wrapped %v", plain.events, wrapped.events)
	}
}
