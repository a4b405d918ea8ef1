package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	alisa "repro"
)

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = testEngine(t)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := g.Drain(ctx); err != nil && ctx.Err() != nil {
			g.Abort()
			g.Drain(context.Background())
		}
	})
	return g
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// checkEqual reports a transcript mismatch at its first differing byte.
func checkEqual(t *testing.T, got, want, desc string) {
	t.Helper()
	if got == want {
		return
	}
	pos := 0
	for pos < len(got) && pos < len(want) && got[pos] == want[pos] {
		pos++
	}
	t.Errorf("%s: mismatch at byte %d\nwant from there: %q\ngot from there:  %q", desc, pos, want[pos:], got[pos:])
}

func TestGatewayConfigValidation(t *testing.T) {
	eng := testEngine(t)
	cases := []struct {
		name      string
		cfg       Config
		wantField string
	}{
		{"nil engine", Config{}, "Engine"},
		{"negative time scale", Config{Engine: eng, TimeScale: -1}, "TimeScale"},
		{"negative buffer", Config{Engine: eng, Buffer: -8}, "Buffer"},
		{"unknown policy", Config{Engine: eng, OnFull: OverflowPolicy(1)}, "OnFull"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			var ce *alisa.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("New: %v, want *alisa.ConfigError", err)
			}
			if ce.Field != tc.wantField {
				t.Fatalf("ConfigError field = %q, want %q", ce.Field, tc.wantField)
			}
		})
	}
}

// TestGatewayBlockingCompletion is the stream=false happy path: one POST,
// one JSON body carrying the request's final simulated latencies.
func TestGatewayBlockingCompletion(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0})
	rec := postJSON(t, g, "/v1/completions", `{"id":"alpha","input_tokens":32,"max_tokens":4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var cr completionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.ID != "alpha" || cr.Request != 0 || cr.Model != "opt-6.7b" {
		t.Errorf("identity = (%q, %d, %q), want (alpha, 0, opt-6.7b)", cr.ID, cr.Request, cr.Model)
	}
	if cr.InputTokens != 32 || cr.OutputTokens != 4 {
		t.Errorf("shape = (%d, %d), want (32, 4)", cr.InputTokens, cr.OutputTokens)
	}
	if cr.TTFT <= 0 || cr.E2E < cr.TTFT || cr.Clock < cr.E2E {
		t.Errorf("latencies TTFT=%v E2E=%v Clock=%v implausible", cr.TTFT, cr.E2E, cr.Clock)
	}

	// A prompt string is costed by its whitespace-split length.
	rec = postJSON(t, g, "/v1/completions", `{"prompt":"to be or not to be","max_tokens":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("prompt status = %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.InputTokens != 6 || cr.ID != "req-1" {
		t.Errorf("prompt request = (%d tokens, %q), want (6, req-1)", cr.InputTokens, cr.ID)
	}

	mrec := get(t, g, "/v1/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", mrec.Code)
	}
	var mr metricsResponse
	if err := json.Unmarshal(mrec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Model != "opt-6.7b" || mr.Window.Count != 2 || mr.Pending != 0 || mr.InFlight != 0 {
		t.Errorf("metrics = %+v, want 2 windowed completions on an idle gateway", mr)
	}
}

// goldenSSE is the exact wire transcript of one scripted request
// (input 8, max_tokens 3, arrival 0) against the testEngine
// configuration — pinned bytes, so any drift in event framing, field
// order, or the simulation's costed timings fails loudly.
const goldenSSE = "event: admission\n" +
	"data: {\"type\":\"admission\",\"id\":\"golden-1\",\"request\":0,\"clock\":0.015131815275497834,\"wait\":0,\"input_tokens\":8,\"output_tokens\":3,\"batch\":1}\n\n" +
	"event: first_token\n" +
	"data: {\"type\":\"first_token\",\"id\":\"golden-1\",\"request\":0,\"clock\":0.015131815275497834,\"ttft\":0.015131815275497834}\n\n" +
	"event: token\n" +
	"data: {\"type\":\"token\",\"id\":\"golden-1\",\"request\":0,\"clock\":0.030226609657720054,\"index\":1}\n\n" +
	"event: token\n" +
	"data: {\"type\":\"token\",\"id\":\"golden-1\",\"request\":0,\"clock\":0.04532199127549783,\"index\":2}\n\n" +
	"event: token\n" +
	"data: {\"type\":\"token\",\"id\":\"golden-1\",\"request\":0,\"clock\":0.06041796012883116,\"index\":3}\n\n" +
	"event: completion\n" +
	"data: {\"type\":\"completion\",\"id\":\"golden-1\",\"request\":0,\"clock\":0.06041796012883116,\"ttft\":0.015131815275497834,\"tpot\":0.015095381617777777,\"e2e\":0.06041796012883116,\"slo_met\":true,\"preemptions\":0}\n\n" +
	"data: [DONE]\n\n"

// TestGatewaySSEGoldenTranscript streams one held, scripted request over
// real HTTP and compares the whole SSE body byte-for-byte.
func TestGatewaySSEGoldenTranscript(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0, Hold: true})
	srv := httptest.NewServer(g)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"id":"golden-1","input_tokens":8,"max_tokens":3,"arrival":0,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	if id := resp.Header.Get("X-Request-Id"); id != "golden-1" {
		t.Errorf("X-Request-Id = %q, want golden-1", id)
	}

	// The clock is held; open the gate and read the full stream.
	rel, err := http.Post(srv.URL+"/v1/admin/release", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rel.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkEqual(t, string(body), goldenSSE, "SSE transcript")
}

// stallWriter is a ResponseWriter whose first Flush reports the stall
// and then blocks until release closes: a client that stops reading. It
// records the body's length at every Flush, the boundaries at which a
// client receives the stream.
type stallWriter struct {
	*httptest.ResponseRecorder
	once             sync.Once
	stalled, release chan struct{}
	flushes          []int
}

func (w *stallWriter) Flush() {
	w.once.Do(func() {
		close(w.stalled)
		<-w.release
	})
	w.flushes = append(w.flushes, w.Body.Len())
	w.ResponseRecorder.Flush()
}

// goldenSlowReader is the wire transcript of one scripted request (input
// 8, max_tokens 6, arrival 0) whose client stalled for the whole run
// behind a 2-slot drop-oldest buffer: of its nine events only the last
// token and the completion survive, behind a marker counting the seven
// lost.
const goldenSlowReader = "event: dropped\n" +
	"data: {\"type\":\"dropped\",\"id\":\"slow-1\",\"request\":0,\"dropped\":7}\n\n" +
	"event: token\n" +
	"data: {\"type\":\"token\",\"id\":\"slow-1\",\"request\":0,\"clock\":0.10570939010216449,\"index\":6}\n\n" +
	"event: completion\n" +
	"data: {\"type\":\"completion\",\"id\":\"slow-1\",\"request\":0,\"clock\":0.10570939010216449,\"ttft\":0.015131815275497834,\"tpot\":0.015096262471111108,\"e2e\":0.10570939010216449,\"slo_met\":true,\"preemptions\":0}\n\n" +
	"data: [DONE]\n\n"

// TestGatewaySlowReader is the slow-reader fault test over the handler:
// the writer stalls on the flush the handler makes before reading any
// event, the run finishes without waiting for it, and the released
// client gets the dropped marker, the surviving events and [DONE].
func TestGatewaySlowReader(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0, Buffer: 2})
	w := &stallWriter{ResponseRecorder: httptest.NewRecorder(),
		stalled: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/v1/completions",
		strings.NewReader(`{"id":"slow-1","input_tokens":8,"max_tokens":6,"arrival":0,"stream":true}`))
	served := make(chan struct{})
	go func() {
		g.ServeHTTP(w, req)
		close(served)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case <-w.stalled:
	case <-ctx.Done():
		t.Fatal("the handler never flushed")
	}
	res, err := g.Drain(ctx)
	if err != nil || res.Completed != 1 {
		t.Fatalf("Drain = %+v, %v; want 1 completion", res, err)
	}
	close(w.release)
	<-served
	checkEqual(t, w.Body.String(), goldenSlowReader, "slow-reader transcript")
}

// TestGatewayStreamFlushesFirstTokenAlone pins the write rule unpaced.
// The writer stalls on the header flush until the run has published the
// golden request's every event, so each event pops with the rest queued
// behind it: first_token must still reach the client before any later
// byte is written, while the queued tail of tokens, completion and
// [DONE] goes out in one burst.
func TestGatewayStreamFlushesFirstTokenAlone(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0})
	w := &stallWriter{ResponseRecorder: httptest.NewRecorder(),
		stalled: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/v1/completions",
		strings.NewReader(`{"id":"golden-1","input_tokens":8,"max_tokens":3,"arrival":0,"stream":true}`))
	served := make(chan struct{})
	go func() {
		g.ServeHTTP(w, req)
		close(served)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	select {
	case <-w.stalled:
	case <-ctx.Done():
		t.Fatal("the handler never flushed")
	}
	if res, err := g.Drain(ctx); err != nil || res.Completed != 1 {
		t.Fatalf("Drain = %+v, %v; want 1 completion", res, err)
	}
	close(w.release)
	<-served
	checkEqual(t, w.Body.String(), goldenSSE, "SSE transcript")

	firstTokenEnd := strings.Index(goldenSSE, "event: token\n")
	i := 0
	for i < len(w.flushes) && w.flushes[i] < firstTokenEnd {
		i++
	}
	if i == len(w.flushes) || w.flushes[i] != firstTokenEnd {
		t.Fatalf("flushes at body offsets %v: none ends at first_token's frame (offset %d)", w.flushes, firstTokenEnd)
	}
	if tail := w.flushes[i+1:]; len(tail) > 2 {
		t.Errorf("the queued tail went out in %d flushes (at offsets %v), want at most 2", len(tail), tail)
	}
}

// TestGatewayPacedStreamFlushesBeforeWaiting pins the write rule paced:
// the golden request's events, stamped with the wall deadlines a bridge
// at time scale 1 gives them and all queued before the handler reads
// one, reach the client each at its own instant — every frame followed
// by an event with a later clock is flushed before the handler sleeps
// for that event.
func TestGatewayPacedStreamFlushesBeforeWaiting(t *testing.T) {
	b := testBridge(t, 0, 64, false)
	src, err := b.Submit(context.Background(), SubmitSpec{ID: "golden-1", Input: 8, Output: 3, Arrival: at(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	events, _ := drainEvents(t, src)
	sub := newSubscriber(src.ID(), src.Request(), 64)
	anchor := time.Now()
	for _, ev := range events {
		ev.At = anchor.Add(time.Duration(ev.Clock * float64(time.Second)))
		sub.publish(ev)
	}
	release := make(chan struct{})
	close(release)
	w := &stallWriter{ResponseRecorder: httptest.NewRecorder(), stalled: make(chan struct{}), release: release}
	(&Gateway{}).streamCompletion(w, httptest.NewRequest(http.MethodPost, "/v1/completions", nil), sub)
	checkEqual(t, w.Body.String(), goldenSSE, "paced SSE transcript")

	flushed := make(map[int]bool)
	for _, n := range w.flushes {
		flushed[n] = true
	}
	end := 0
	for i, ev := range events[:len(events)-1] {
		end += strings.Index(goldenSSE[end:], "\n\n") + 2
		if next := events[i+1]; next.Clock > ev.Clock && !flushed[end] {
			t.Errorf("%s at clock %v was held while the handler waited for the %s at clock %v (flushes at %v)",
				ev.Kind, ev.Clock, next.Kind, next.Clock, w.flushes)
		}
	}
}

// recordingListener counts the connections it accepts and keeps every
// Write made on them, in order.
type recordingListener struct {
	net.Listener
	mu     sync.Mutex
	conns  int
	writes [][]byte
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns++
	l.mu.Unlock()
	return &recordingConn{Conn: c, l: l}, nil
}

// lastWrite returns the most recent Write on any accepted connection.
func (l *recordingListener) lastWrite() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.writes) == 0 {
		return nil
	}
	return l.writes[len(l.writes)-1]
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.writes = append(c.l.writes, bytes.Clone(p))
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// TestGatewayTerminalBurstEndsTheResponse pins how a stream ends on the
// wire: the write that carries data: [DONE] also carries the chunked
// body's terminator, so a client that stops reading at [DONE] has read
// the body to its end and keeps the connection. One Go client's
// sequential streams, each read to [DONE] and closed, share one
// connection.
func TestGatewayTerminalBurstEndsTheResponse(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0})
	srv := httptest.NewUnstartedServer(g)
	rl := &recordingListener{Listener: srv.Listener}
	srv.Listener = rl
	srv.Start()
	defer srv.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	const streams = 8
	for i := 0; i < streams; i++ {
		resp, err := client.Post(srv.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"input_tokens":8,"max_tokens":4,"stream":true}`))
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("stream %d ended before [DONE]: %v", i, err)
			}
			if line == "data: [DONE]\n" {
				break
			}
		}
		resp.Body.Close()
		const end = "data: [DONE]\n\n\r\n0\r\n\r\n"
		if last := rl.lastWrite(); !bytes.HasSuffix(last, []byte(end)) {
			t.Fatalf("stream %d: the last write %q does not end with [DONE] and the chunk terminator", i, last)
		}
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if rl.conns != 1 {
		t.Errorf("%d sequential streams opened %d connections, want 1", streams, rl.conns)
	}
}

func TestGatewayValidationErrors(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0})
	cases := []struct {
		name      string
		body      string
		wantParam string
	}{
		{"malformed json", `{oops`, "body"},
		{"wrong model", `{"model":"gpt-4","input_tokens":4,"max_tokens":1}`, "model"},
		{"prompt and input_tokens", `{"prompt":"hi there","input_tokens":4,"max_tokens":1}`, "input_tokens"},
		{"no prompt length", `{"max_tokens":1}`, "input_tokens"},
		{"negative input_tokens", `{"input_tokens":-3,"max_tokens":1}`, "input_tokens"},
		{"missing max_tokens", `{"input_tokens":4}`, "max_tokens"},
		{"negative arrival", `{"input_tokens":4,"max_tokens":1,"arrival":-0.5}`, "arrival"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, g, "/v1/completions", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatal(err)
			}
			if eb.Error.Type != "invalid_request_error" || eb.Error.Param != tc.wantParam {
				t.Errorf("envelope = %+v, want invalid_request_error on param %q", eb.Error, tc.wantParam)
			}
			if eb.Error.Message == "" {
				t.Error("error message empty")
			}
		})
	}
}

// TestGatewayBodyLimit posts a body past the 1 MiB cap: it is refused
// with 413 on param "body" before it is decoded in full, and the gateway
// then streams a normal completion to the end.
func TestGatewayBodyLimit(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0})
	srv := httptest.NewServer(g)
	defer srv.Close()

	big := `{"prompt":"` + strings.Repeat("x ", 1<<20) + `","max_tokens":1}`
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	if eb.Error.Type != "invalid_request_error" || eb.Error.Param != "body" || eb.Error.Message == "" {
		t.Errorf("envelope = %+v, want invalid_request_error on param body", eb.Error)
	}

	resp, err = http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"input_tokens":64,"max_tokens":6,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream after 413: status = %d, body %s", resp.StatusCode, body)
	}
	if n := strings.Count(string(body), "event: token\n"); n != 6 {
		t.Errorf("stream after 413 carried %d token events, want 6", n)
	}
	if !strings.Contains(string(body), "event: completion\n") || !strings.HasSuffix(string(body), "data: [DONE]\n\n") {
		t.Errorf("stream after 413 did not complete: %q", body)
	}
}

// TestGatewayMidStreamDisconnect is the disconnect fault test: a client
// that reads the first SSE event of a long completion and hangs up must
// neither wedge the gateway nor leave its subscriber or any goroutine
// behind. The buffer holds the whole stream, so the admission event is
// never the one dropped.
func TestGatewayMidStreamDisconnect(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0, Buffer: 1024})
	srv := httptest.NewServer(g)
	defer srv.Close()
	client := srv.Client()
	client.Timeout = 10 * time.Second // a wedged driver fails, not hangs
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/completions",
		strings.NewReader(`{"input_tokens":64,"max_tokens":1000,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || line != "event: admission\n" {
		t.Fatalf("first SSE line = %q (%v), want the admission event", line, err)
	}
	cancel()
	resp.Body.Close()

	// A later blocking completion still answers.
	resp, err = client.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"input_tokens":32,"max_tokens":4}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("completion after a disconnect = %d (%v), want 200", resp.StatusCode, err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	res, err := g.Drain(dctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Errorf("drain completed %d requests, want 2", res.Completed)
	}
	// Drain returned after the driver exited, so its table is ours to read.
	if subs := len(g.bridge.subs); subs != 0 {
		t.Errorf("bridge still holds %d subscribers", subs)
	}

	client.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the requests, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayStalledReaderStallsNobody holds the slow-consumer contract:
// a stream nobody reads (a 1-slot buffer, unpaced, 64 tokens) stalls
// neither the simulation nor any other caller. Another completion
// finishes and the metrics endpoint answers, each within a second, and
// the stalled stream, read at last, ends with its completion, every
// event it lost counted.
func TestGatewayStalledReaderStallsNobody(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0, Buffer: 1})
	srv := httptest.NewServer(g)
	defer srv.Close()
	client := srv.Client()
	client.Timeout = time.Second

	// A handler stuck writing to a client that stopped reading never
	// calls Next: this subscriber is that handler.
	stalled, err := g.bridge.Submit(context.Background(), SubmitSpec{ID: "stalled", Input: 16, Output: 64, Arrival: at(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	resp, err := client.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"id":"other","input_tokens":32,"max_tokens":4}`))
	if err != nil {
		t.Fatalf("completion beside a stalled stream: %v", err)
	}
	var cr completionResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || cr.ID != "other" {
		t.Fatalf("completion beside a stalled stream = %d %+v (%v), want 200", resp.StatusCode, cr, err)
	}
	resp, err = client.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("metrics beside a stalled stream: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics beside a stalled stream = %d, want 200", resp.StatusCode)
	}

	// Admission, first token, 64 tokens and the completion: 67 events,
	// each delivered or counted as dropped.
	events, drops := drainEvents(t, stalled)
	lost := 0
	for _, n := range drops {
		lost += n
	}
	if final := events[len(events)-1]; final.Kind != KindCompletion || len(events)+lost != 67 {
		t.Errorf("stalled stream: %d events ending in %q with %d dropped, want a completion and 67 in all",
			len(events), final.Kind, lost)
	}
}

// TestGatewayDrainLifecycle walks the shutdown contract over the wire:
// readiness flips the moment a drain begins, new completions bounce with
// 503 + Retry-After, and liveness plus final metrics stay served.
func TestGatewayDrainLifecycle(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0})
	if rec := get(t, g, "/readyz"); rec.Code != http.StatusOK || rec.Body.String() != "ready\n" {
		t.Fatalf("readyz before drain = %d %q", rec.Code, rec.Body)
	}
	if rec := get(t, g, "/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := g.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	rec := postJSON(t, g, "/v1/completions", `{"input_tokens":4,"max_tokens":1}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("completion during shutdown = %d, want 503 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", rec.Header().Get("Retry-After"))
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Type != "unavailable_error" {
		t.Errorf("error type = %q, want unavailable_error", eb.Error.Type)
	}

	if rec := get(t, g, "/readyz"); rec.Code != http.StatusServiceUnavailable || rec.Body.String() != "draining\n" {
		t.Errorf("readyz during shutdown = %d %q, want 503 draining", rec.Code, rec.Body)
	}
	if rec := get(t, g, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz during shutdown = %d, want 200", rec.Code)
	}
	mrec := get(t, g, "/v1/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics after close = %d", mrec.Code)
	}
	var mr metricsResponse
	if err := json.Unmarshal(mrec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Draining {
		t.Errorf("final metrics snapshot = %+v, want draining=true", mr)
	}
}

// TestGatewayErrorMapping pins writeError's status mapping for every
// sentinel the handlers can surface.
func TestGatewayErrorMapping(t *testing.T) {
	g := newTestGateway(t, Config{TimeScale: 0})
	cases := []struct {
		err        error
		wantStatus int
		wantType   string
	}{
		{&alisa.ConfigError{Field: "max_tokens", Value: 0, Reason: "must be positive"}, 400, "invalid_request_error"},
		{ErrDraining, 503, "unavailable_error"},
		{ErrClosed, 503, "unavailable_error"},
		{fmt.Errorf("wrapped: %w", ErrFailed), 503, "unavailable_error"},
		{alisa.ErrSessionClosed, 503, "unavailable_error"},
		{fmt.Errorf("some push contract violation"), 400, "invalid_request_error"},
		{&http.MaxBytesError{Limit: maxBodyBytes}, 413, "invalid_request_error"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		g.writeError(rec, tc.err)
		if rec.Code != tc.wantStatus {
			t.Errorf("writeError(%v) status = %d, want %d", tc.err, rec.Code, tc.wantStatus)
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Type != tc.wantType {
			t.Errorf("writeError(%v) type = %q, want %q", tc.err, eb.Error.Type, tc.wantType)
		}
	}
}

// scriptedMetrics runs the fixed six-request workload against a gateway
// at the given time scale — held, submitted concurrently with explicit
// arrivals, then released — and returns the raw /v1/metrics window plus
// the per-request completion bodies keyed by ID.
func scriptedMetrics(t *testing.T, scale float64) (window json.RawMessage, clock float64, byID map[string]completionResponse) {
	t.Helper()
	g := newTestGateway(t, Config{TimeScale: scale, Hold: true})
	srv := httptest.NewServer(g)
	defer srv.Close()

	specs := []struct {
		id      string
		input   int
		output  int
		arrival float64
	}{
		{"r0", 64, 8, 0},
		{"r1", 128, 4, 0.05},
		{"r2", 32, 12, 0.1},
		{"r3", 256, 6, 0.15},
		{"r4", 64, 8, 0.2},
		{"r5", 96, 4, 0.25},
	}
	byID = make(map[string]completionResponse)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"id":%q,"input_tokens":%d,"max_tokens":%d,"arrival":%g}`,
				s.id, s.input, s.output, s.arrival)
			resp, err := http.Post(srv.URL+"/v1/completions", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("POST %s: %v", s.id, err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("POST %s: status %d, err %v, body %s", s.id, resp.StatusCode, err, data)
				return
			}
			var cr completionResponse
			if err := json.Unmarshal(data, &cr); err != nil {
				t.Errorf("POST %s: %v", s.id, err)
				return
			}
			mu.Lock()
			byID[s.id] = cr
			mu.Unlock()
		}()
	}

	// Open the gate only after every submission is queued on the
	// simulated timeline, so wall-clock submission order cannot matter.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := g.bridge.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == len(specs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions queued", st.Pending, len(specs))
		}
		time.Sleep(time.Millisecond)
	}
	if err := g.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var mr struct {
		Clock  float64         `json:"clock"`
		Window json.RawMessage `json:"window"`
	}
	mrec := get(t, g, "/v1/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", mrec.Code)
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	return mr.Window, mr.Clock, byID
}

// TestGatewayTimeScaleBitIdentical is the pacing-bridge determinism
// contract, end to end over HTTP: the same scripted workload produces
// byte-identical window metrics and identical per-request latencies
// whether the gateway free-runs (-time-scale 0) or paces delivery
// against the wall clock (-time-scale 400). Dilation may only move
// events in wall time, never change them.
func TestGatewayTimeScaleBitIdentical(t *testing.T) {
	winFast, clockFast, fast := scriptedMetrics(t, 0)
	winPaced, clockPaced, paced := scriptedMetrics(t, 400)

	if string(winFast) != string(winPaced) {
		t.Errorf("window metrics differ across time scales:\n scale 0:   %s\n scale 400: %s", winFast, winPaced)
	}
	if clockFast != clockPaced {
		t.Errorf("final clock differs: %v (scale 0) vs %v (scale 400)", clockFast, clockPaced)
	}
	if len(fast) != len(paced) {
		t.Fatalf("completion counts differ: %d vs %d", len(fast), len(paced))
	}
	for id, f := range fast {
		p, ok := paced[id]
		if !ok {
			t.Errorf("request %s missing at scale 400", id)
			continue
		}
		// The numeric request number depends on wall-clock submission
		// order; everything simulated must match exactly.
		if f.TTFT != p.TTFT || f.TPOT != p.TPOT || f.E2E != p.E2E ||
			f.Clock != p.Clock || f.SLOMet != p.SLOMet || f.Preemptions != p.Preemptions {
			t.Errorf("request %s diverged across time scales:\n scale 0:   %+v\n scale 400: %+v", id, f, p)
		}
	}
}
