package gateway

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// The reference wire payloads: per-kind projections of Event that
// encoding/json renders with the fields in declaration order. The
// stream encoder writes these bytes by hand; FuzzSSEFrame holds it to
// them.

type wireAdmission struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	Wait    float64 `json:"wait"`
	Input   int     `json:"input_tokens"`
	Output  int     `json:"output_tokens"`
	Batch   int     `json:"batch"`
}

type wireFirstToken struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	TTFT    float64 `json:"ttft"`
}

type wireToken struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	Index   int     `json:"index"`
}

type wirePreemption struct {
	Type      Kind    `json:"type"`
	ID        string  `json:"id"`
	Request   int     `json:"request"`
	Clock     float64 `json:"clock"`
	Generated int     `json:"generated"`
}

type wireCompletion struct {
	Type        Kind    `json:"type"`
	ID          string  `json:"id"`
	Request     int     `json:"request"`
	Clock       float64 `json:"clock"`
	TTFT        float64 `json:"ttft"`
	TPOT        float64 `json:"tpot"`
	E2E         float64 `json:"e2e"`
	SLOMet      bool    `json:"slo_met"`
	Preemptions int     `json:"preemptions"`
}

type wireDropped struct {
	Type    Kind   `json:"type"`
	ID      string `json:"id"`
	Request int    `json:"request"`
	Dropped int    `json:"dropped"`
}

type wireError struct {
	Type    Kind    `json:"type"`
	ID      string  `json:"id"`
	Request int     `json:"request"`
	Clock   float64 `json:"clock"`
	Error   string  `json:"error"`
}

// referenceFrame renders one event through json.Marshal of its kind's
// wire payload.
func referenceFrame(kind Kind, payload any) (string, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	return "event: " + string(kind) + "\ndata: " + string(data) + "\n\n", nil
}

// referenceEvent renders ev, streamed for correlation ID id, through
// json.Marshal of its kind's wire payload.
func referenceEvent(ev Event, id string) (string, error) {
	var payload any
	switch ev.Kind {
	case KindAdmission:
		payload = wireAdmission{Type: ev.Kind, ID: id, Request: ev.Request,
			Clock: ev.Clock, Wait: ev.Wait, Input: ev.Input, Output: ev.Output, Batch: ev.Batch}
	case KindFirstToken:
		payload = wireFirstToken{Type: ev.Kind, ID: id, Request: ev.Request, Clock: ev.Clock, TTFT: ev.TTFT}
	case KindToken:
		payload = wireToken{Type: ev.Kind, ID: id, Request: ev.Request, Clock: ev.Clock, Index: ev.Index}
	case KindPreemption:
		payload = wirePreemption{Type: ev.Kind, ID: id, Request: ev.Request, Clock: ev.Clock, Generated: ev.Generated}
	case KindCompletion:
		payload = wireCompletion{Type: ev.Kind, ID: id, Request: ev.Request,
			Clock: ev.Clock, TTFT: ev.TTFT, TPOT: ev.TPOT, E2E: ev.E2E,
			SLOMet: ev.SLOMet, Preemptions: ev.Preemptions}
	case KindError:
		payload = wireError{Type: ev.Kind, ID: id, Request: ev.Request, Clock: ev.Clock, Error: ev.Err}
	default:
		return "", errors.New("no wire payload")
	}
	return referenceFrame(ev.Kind, payload)
}

// FuzzSSEFrame holds the hand-written stream encoder to encoding/json
// byte for byte: for every kind, a frame equals "event: <kind>\ndata: "
// + json.Marshal(<kind's wire payload>) + "\n\n", or both fail (an
// unknown kind, NaN or ±Inf) and the encoder's buffer keeps only the
// frames before the failed one. The kind, ID and error text are raw
// bytes (invalid UTF-8, HTML and JSON metacharacters, control bytes,
// U+2028/U+2029); the floats are raw IEEE-754 bits.
func FuzzSSEFrame(f *testing.F) {
	bits := math.Float64bits
	specials := []uint64{
		bits(0), bits(math.Copysign(0, -1)), 1, 0x000fffffffffffff, // ±0, subnormals
		bits(1e-6), bits(math.Nextafter(1e-6, 0)), bits(-1e-6), bits(-math.Nextafter(1e-6, 0)),
		bits(1e21), bits(math.Nextafter(1e21, 0)), bits(-1e21), bits(-math.Nextafter(1e21, 0)),
		bits(1e-7), bits(-2.5e-9), bits(1e-10), bits(1e22), bits(1e100), bits(math.MaxFloat64),
		bits(0.015131815275497834), bits(123456.789), bits(-1),
		bits(math.NaN()), bits(math.Inf(1)), bits(math.Inf(-1)),
	}
	ids := []string{"golden-1", "req-7", "", "<script>&amp;\"\\", "\x00\x1f\x7f", "\xff\xfe bad utf-8", "line\u2028sep\u2029"}
	kinds := []Kind{KindAdmission, KindFirstToken, KindToken, KindPreemption, KindCompletion, KindError, "dropped", "bogus"}
	for i, b := range specials {
		kind, id := kinds[i%len(kinds)], ids[i%len(ids)]
		f.Add([]byte(kind), []byte(id), []byte(id+" failed"), i-3, i*7-50, -i, i, 1<<40, b, b, b, b, b, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, kind, id, errText []byte, request, dropped, n1, n2, n3 int,
		clock, f1, f2, f3, f4 uint64, slo bool) {
		ev := Event{
			Kind: Kind(kind), Request: request,
			Clock: math.Float64frombits(clock), Wait: math.Float64frombits(f1),
			Input: n1, Output: n2, Batch: n3, TTFT: math.Float64frombits(f2),
			Index: n1, Generated: n2, TPOT: math.Float64frombits(f3),
			E2E: math.Float64frombits(f4), SLOMet: slo, Preemptions: n3, Err: string(errText),
		}
		marker, err := referenceFrame("dropped", wireDropped{Type: "dropped", ID: string(id), Request: request, Dropped: dropped})
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := referenceEvent(ev, string(id))

		enc := newSSEEncoder(string(id), request)
		enc.dropped(dropped)
		err = enc.event(ev)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s frame: encoder error %v, json.Marshal error %v", ev.Kind, err, wantErr)
		}
		if got := string(enc.buf); got != marker+want {
			t.Fatalf("%s frame:\n got %q\nwant %q", ev.Kind, got, marker+want)
		}
	})
}

// TestSSEEncoderTokenAllocsZero: a token frame, the one written per
// generated token, encodes into a warmed stream encoder without
// allocating.
func TestSSEEncoderTokenAllocsZero(t *testing.T) {
	enc := newSSEEncoder("golden-1", 0)
	ev := Event{Kind: KindToken, Clock: 0.030226609657720054, Index: 1}
	if err := enc.event(ev); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		enc.buf = enc.buf[:0]
		if err := enc.event(ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encoding a token frame into a warmed encoder: %v allocations, want 0", allocs)
	}
}
