package gateway

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	alisa "repro"
)

// FuzzCompletionRequest drives arbitrary bodies through the completion
// decode and validation, behind the body cap. Every input ends in one of
// two outcomes: a spec the session can run (positive lengths, and a
// finite arrival ≥ 0 when one is given), or an error that writeError
// answers 400 (*alisa.ConfigError) or 413 (a body past the cap). No
// input may panic.
func FuzzCompletionRequest(f *testing.F) {
	for _, seed := range []string{
		`{"input_tokens":64,"max_tokens":6,"stream":true}`,
		`{"id":"a","prompt":"to be or not to be","max_tokens":2,"arrival":0.5}`,
		`{"model":"opt-6.7b","input_tokens":4,"max_tokens":1,"stream":false}`,
		`{"model":"gpt-4","input_tokens":4,"max_tokens":1}`,
		`{"prompt":"hi there","input_tokens":4,"max_tokens":1}`,
		`{"input_tokens":4,"max_tokens":1,"arrival":-0.5}`,
		`{"input_tokens":4,"max_tokens":1,"arrival":1e309}`,
		`{"input_tokens":4,"max_tokens":-1}`,
		`{oops`,
		`{"prompt":"` + strings.Repeat("x ", maxBodyBytes/2) + `","max_tokens":1}`,
	} {
		f.Add([]byte(seed))
	}
	g := &Gateway{model: "opt-6.7b"}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/completions", bytes.NewReader(body))
		spec, _, err := g.parseCompletion(rec, req)
		if err == nil {
			if spec.Input <= 0 || spec.Output <= 0 {
				t.Fatalf("accepted non-positive lengths: %+v", spec)
			}
			if a := spec.Arrival; a != nil && (*a < 0 || math.IsNaN(*a) || math.IsInf(*a, 0)) {
				t.Fatalf("accepted arrival %v", *a)
			}
			return
		}
		var ce *alisa.ConfigError
		var tooLarge *http.MaxBytesError
		want := http.StatusBadRequest
		switch {
		case errors.As(err, &tooLarge):
			want = http.StatusRequestEntityTooLarge
		case !errors.As(err, &ce):
			t.Fatalf("rejected with %T, want *alisa.ConfigError or *http.MaxBytesError: %v", err, err)
		}
		g.writeError(rec, err)
		if rec.Code != want {
			t.Fatalf("writeError(%v) status = %d, want %d", err, rec.Code, want)
		}
	})
}

// FuzzSubscriber runs a subscriber's ring through a script decoded from
// the fuzz bytes — publish (of a terminal event or not), Next and Close,
// all on one goroutine — beside a model: a plain slice that discards its
// oldest event when full and counts the loss. Every Next must return the
// model's event, drop count and more, and ok. Next pops a buffered event
// before it looks at its context, so it is always given a cancelled one:
// with nothing buffered it must return at once with ok false.
func FuzzSubscriber(f *testing.F) {
	f.Add(uint8(1), []byte{0, 2, 0, 0, 1, 2, 2})
	f.Add(uint8(2), []byte{0, 0, 0, 0, 2, 2, 2, 0, 3, 0, 2, 2})
	f.Add(uint8(3), []byte{2, 1, 0, 0, 0, 0, 2, 3, 1, 2, 2, 2})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, size uint8, script []byte) {
		capacity := int(size%8) + 1
		sub := newSubscriber("fuzz", 0, capacity)
		var model []Event
		dropped, closed := 0, false
		for i, op := range script {
			switch op % 4 {
			case 0, 1:
				ev := Event{Kind: KindToken, Index: i}
				if op%4 == 1 {
					ev.Kind = KindCompletion
				}
				sub.publish(ev)
				if closed {
					continue
				}
				if len(model) == capacity {
					model = model[1:]
					dropped++
				}
				model = append(model, ev)
			case 2:
				ev, gotDropped, more, ok := sub.Next(cancelled)
				if len(model) == 0 {
					if ok {
						t.Fatalf("op %d: Next on an empty ring returned %+v", i, ev)
					}
					continue
				}
				want := model[0]
				model = model[1:]
				if !ok || ev != want || gotDropped != dropped || more != (len(model) > 0) {
					t.Fatalf("op %d: Next = (%+v, %d, %v, %v), want (%+v, %d, %v, true)",
						i, ev, gotDropped, more, ok, want, dropped, len(model) > 0)
				}
				dropped = 0
			case 3:
				sub.Close()
				closed = true
			}
		}
	})
}
