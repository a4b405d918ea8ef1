package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// sseEncoder renders one stream's server-sent events into a byte buffer
// that the connection handler writes once per burst and then reuses.
// Each frame carries the kind as the event name and, on its data line,
// the JSON object encoding/json would write for the kind's payload:
// exactly the fields the kind documents, in a fixed order, so a stream
// transcript is byte-stable and golden-testable. Every payload leads
// with type/id/request/clock, the correlation spine a client or log
// scraper keys on.
type sseEncoder struct {
	buf []byte
	// spine is `,"id":<id>,"request":<n>`, rendered once per stream. The
	// ID goes through json.Marshal, so a client's ID is escaped exactly
	// as encoding/json escapes it.
	spine []byte
	// finite is false once a float in the current frame was NaN or ±Inf.
	finite bool
}

func newSSEEncoder(id string, request int) *sseEncoder {
	quoted, _ := json.Marshal(id) // a string always marshals
	spine := append([]byte(`,"id":`), quoted...)
	spine = append(spine, `,"request":`...)
	spine = strconv.AppendInt(spine, int64(request), 10)
	return &sseEncoder{buf: make([]byte, 0, 1024), spine: spine}
}

// event appends ev's frame. A kind without a payload, or a float JSON
// cannot carry, fails the frame and leaves the buffer as it was.
func (e *sseEncoder) event(ev Event) error {
	mark := len(e.buf)
	e.finite = true
	switch ev.Kind {
	case KindAdmission:
		e.open(ev.Kind, ev.Clock)
		e.floatField(`,"wait":`, ev.Wait)
		e.intField(`,"input_tokens":`, ev.Input)
		e.intField(`,"output_tokens":`, ev.Output)
		e.intField(`,"batch":`, ev.Batch)
	case KindFirstToken:
		e.open(ev.Kind, ev.Clock)
		e.floatField(`,"ttft":`, ev.TTFT)
	case KindToken:
		e.open(ev.Kind, ev.Clock)
		e.intField(`,"index":`, ev.Index)
	case KindPreemption:
		e.open(ev.Kind, ev.Clock)
		e.intField(`,"generated":`, ev.Generated)
	case KindCompletion:
		e.open(ev.Kind, ev.Clock)
		e.floatField(`,"ttft":`, ev.TTFT)
		e.floatField(`,"tpot":`, ev.TPOT)
		e.floatField(`,"e2e":`, ev.E2E)
		e.buf = strconv.AppendBool(append(e.buf, `,"slo_met":`...), ev.SLOMet)
		e.intField(`,"preemptions":`, ev.Preemptions)
	case KindError:
		e.open(ev.Kind, ev.Clock)
		msg, _ := json.Marshal(ev.Err) // a string always marshals
		e.buf = append(append(e.buf, `,"error":`...), msg...)
	default:
		return fmt.Errorf("gateway: unknown event kind %q", ev.Kind)
	}
	if !e.finite {
		e.buf = e.buf[:mark]
		return fmt.Errorf("gateway: %s event carries a non-finite number", ev.Kind)
	}
	e.buf = append(e.buf, "}\n\n"...)
	return nil
}

// dropped appends the marker that surfaces a buffer overflow to the
// client: n events were lost ahead of whatever follows.
func (e *sseEncoder) dropped(n int) {
	e.buf = append(e.buf, "event: dropped\ndata: {\"type\":\"dropped\""...)
	e.buf = append(e.buf, e.spine...)
	e.intField(`,"dropped":`, n)
	e.buf = append(e.buf, "}\n\n"...)
}

// done appends the OpenAI-style stream terminator.
func (e *sseEncoder) done() { e.buf = append(e.buf, "data: [DONE]\n\n"...) }

// open starts a frame: the event line, then the payload's type, the
// stream's spine and the clock. Kind names need no JSON escaping.
func (e *sseEncoder) open(kind Kind, clock float64) {
	e.buf = append(e.buf, "event: "...)
	e.buf = append(e.buf, kind...)
	e.buf = append(e.buf, "\ndata: {\"type\":\""...)
	e.buf = append(e.buf, kind...)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, e.spine...)
	e.floatField(`,"clock":`, clock)
}

func (e *sseEncoder) intField(key string, v int) {
	e.buf = strconv.AppendInt(append(e.buf, key...), int64(v), 10)
}

func (e *sseEncoder) floatField(key string, v float64) {
	var ok bool
	e.buf, ok = appendJSONFloat(append(e.buf, key...), v)
	e.finite = e.finite && ok
}

// flush writes the buffered frames with one Write, flushes the
// connection, and empties the buffer for the next burst.
func (e *sseEncoder) flush(w io.Writer, f http.Flusher) error {
	_, err := w.Write(e.buf)
	e.buf = e.buf[:0]
	if err == nil && f != nil {
		f.Flush()
	}
	return err
}

// appendJSONFloat appends x as encoding/json writes a float64, which is
// how ES6 prints a number: 'f' format for zero and for magnitudes in
// [1e-6, 1e21), 'e' format otherwise with a one-digit negative exponent
// left unpadded (e-7, not e-07). ok is false for NaN and ±Inf, which
// JSON cannot carry; json.Marshal fails on them.
func appendJSONFloat(b []byte, x float64) (_ []byte, ok bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
