package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the enclosing span, -1 at the root
	req        int           // request id, -1 when the call serves no single request
	lane       int           // the tracer (one per client goroutine) that recorded it
}

// tracer records spans into a slice preallocated at construction, so
// recording allocates nothing; spans past its capacity are counted and
// dropped. A tracer belongs to one goroutine. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	epoch   time.Time
	lane    int
	spans   []span
	open    int // innermost open span, -1 when none
	dropped int
}

func newTracer(epoch time.Time, lane, capacity int) *tracer {
	return &tracer{epoch: epoch, lane: lane, spans: make([]span, 0, capacity), open: -1}
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string, req int) int {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: t.open, req: req, lane: t.lane, end: -1})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes the span begin returned.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = time.Since(t.epoch)
	t.open = t.spans[h].parent
}

// layerTime is the self time the spans of one name accumulated.
type layerTime struct {
	name  string
	calls int
	self  time.Duration
	durs  []float64 // per-call wall durations, seconds
}

// selfTimes aggregates closed spans by name: a span's self time is its
// duration minus the durations of its direct children, which nest
// sequentially inside it on the same goroutine.
func selfTimes(tracers ...*tracer) map[string]*layerTime {
	out := make(map[string]*layerTime)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.end >= 0 && s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			if s.end < 0 {
				continue
			}
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{name: s.name}
				out[s.name] = lt
			}
			d := s.end - s.start
			lt.calls++
			if self := d - child[i]; self > 0 {
				lt.self += self
			}
			lt.durs = append(lt.durs, d.Seconds())
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" (ph X) record; Perfetto
// and chrome://tracing open a JSON array of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes every closed span of the tracers to path in
// Chrome trace-event JSON, creating the directory as needed.
func writeChromeTrace(path string, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var evs []traceEvent
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			if s.end < 0 {
				continue
			}
			evs = append(evs, traceEvent{
				Name: s.name, Ph: "X",
				Ts:  float64(s.start.Nanoseconds()) / 1e3,
				Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
				Pid: 1, Tid: s.lane,
				Args: map[string]int{"id": i, "parent": s.parent, "req": s.req},
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		f.Close()
		return err
	}
	for i := range evs {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(evs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
