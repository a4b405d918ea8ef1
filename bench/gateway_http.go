package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	alisa "repro"
	"repro/internal/gateway"
)

// gatewayHTTP drives an in-process gateway over real loopback HTTP with
// closed-loop clients, each POSTing a streamed completion and reading
// the SSE stream to [DONE] before sending the next. The simulated clock
// runs as fast as possible (time scale 0), so HTTP decoding, the bridge's
// command channel, event fan-out and SSE encoding set the pace. One item
// is one stream.
//
// The loop is closed because sub-millisecond sleeps overshoot by about a
// millisecond — more than the median time to first token — so an
// open-loop schedule would measure the generator's timer.
type gatewayHTTP struct {
	eng     *alisa.Engine
	streams int // per repetition
}

const (
	// gatewayClients is the number of closed-loop connections: no more
	// than the two CPUs the benchmark is sized for.
	gatewayClients = 2
	// gatewayTokens is max_tokens per stream. With the default 64-event
	// drop-oldest buffer, 64 tokens lose events on most streams at time
	// scale 0; 32 keep every stream whole, and any drop is a failure.
	gatewayTokens = 32
)

var gatewayBody = []byte(fmt.Sprintf(`{"input_tokens":256,"max_tokens":%d,"stream":true}`, gatewayTokens))

// gatewayEngine compiles the alisa-gateway command's default engine.
func gatewayEngine() (*alisa.Engine, error) {
	return alisa.New("opt-6.7b",
		alisa.WithScheduler("alisa"), alisa.WithKVSparsity(0.8), alisa.WithKVBits(8),
		alisa.WithMaxBatch(8), alisa.WithSLO(10, 0.5), alisa.WithMetricsWindow(256))
}

func setupGatewayHTTP(o opts) (instance, error) {
	eng, err := gatewayEngine()
	if err != nil {
		return nil, err
	}
	g := &gatewayHTTP{eng: eng, streams: 3000}
	if o.small {
		g.streams = 40
	}
	// Standing the serving stack up once — gateway, listener, HTTP server,
	// a client connection — is part of set-up; each repetition starts its
	// own and times only its streams.
	live, err := startGateway(eng)
	if err != nil {
		return nil, err
	}
	resp, err := live.client.Get(live.base + "/readyz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return g, errors.Join(err, live.stop())
}

func (g *gatewayHTTP) inputs() string { return fmt.Sprintf("%d×%s", g.streams, gatewayBody) }

// liveGateway is one running gateway with its server and client.
type liveGateway struct {
	gw        *gateway.Gateway
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *http.Client
	base      string
}

func startGateway(eng *alisa.Engine) (*liveGateway, error) {
	gw, err := gateway.New(gateway.Config{Engine: eng, TimeScale: 0, Buffer: 64, OnFull: gateway.DropOldest})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Abort()
		return nil, err
	}
	l := &liveGateway{gw: gw, srv: &http.Server{Handler: gw}, served: make(chan error, 1),
		transport: &http.Transport{MaxConnsPerHost: gatewayClients, MaxIdleConnsPerHost: gatewayClients, DisableCompression: true},
		base:      "http://" + ln.Addr().String()}
	l.client = &http.Client{Transport: l.transport}
	go func() { l.served <- l.srv.Serve(ln) }()
	return l, nil
}

// stop drains the gateway, shuts the server down, waits for it to
// return, and closes the client's connections.
func (l *liveGateway) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, drainErr := l.gw.Drain(ctx)
	if drainErr != nil {
		l.gw.Abort()
	}
	shutErr := l.srv.Shutdown(ctx)
	if err := <-l.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	l.transport.CloseIdleConnections()
	return errors.Join(drainErr, shutErr)
}

// streamStats accumulates one client's per-stream measurements.
type streamStats struct {
	ttft, e2e, headers, gap, tail, metricsGet []float64 // seconds
	bytes, dropped, failed                    int
	firstErr                                  error
}

func (g *gatewayHTTP) rep(ts *traceSet, mid func()) (repOut, error) {
	out := repOut{items: g.streams}
	live, err := startGateway(g.eng)
	if err != nil {
		out.failed = out.items
		return out, err
	}
	stats := make([]streamStats, gatewayClients)
	tracers := make([]*tracer, gatewayClients)
	for c := range tracers {
		tracers[c] = ts.lane()
	}
	// Two halves, each run by every client, with the heap sampled in
	// between while no stream is in flight.
	start := now()
	g.half(live, 0, g.streams/2, tracers, stats)
	mid()
	g.half(live, g.streams/2, g.streams, tracers, stats)
	out.timed = start.elapsed()
	stopErr := live.stop()

	var all streamStats
	for _, st := range stats {
		all.ttft = append(all.ttft, st.ttft...)
		all.e2e = append(all.e2e, st.e2e...)
		all.headers = append(all.headers, st.headers...)
		all.gap = append(all.gap, st.gap...)
		all.tail = append(all.tail, st.tail...)
		all.metricsGet = append(all.metricsGet, st.metricsGet...)
		all.bytes += st.bytes
		all.dropped += st.dropped
		all.failed += st.failed
		if all.firstErr == nil {
			all.firstErr = st.firstErr
		}
	}
	out.failed = all.failed
	// Wall-clock arrivals make the simulated results vary, so the digest
	// is the per-stream wire contract every repetition must meet.
	out.digest = fmt.Sprintf("%d streams × (admission, first_token, %d tokens, completion, [DONE])", g.streams, gatewayTokens)
	if stopErr != nil {
		return out, stopErr
	}
	if all.firstErr != nil && all.failed == g.streams {
		return out, all.firstErr
	}
	for _, p := range []struct {
		name string
		v    []float64
		q    float64
	}{{"http_ttft_p50_ms", all.ttft, 50}, {"http_ttft_p99_ms", all.ttft, 99}, {"http_e2e_p99_ms", all.e2e, 99}} {
		if v, ok := percentile(p.v, p.q); ok {
			out.values = append(out.values, value{name: p.name, unit: "ms", better: "lower", v: v * 1e3})
		}
	}
	if ts != nil {
		for _, p := range []struct {
			name string
			v    []float64
			q    float64
		}{
			{"gateway.headers_ms.p50", all.headers, 50}, {"gateway.headers_ms.p99", all.headers, 99},
			{"gateway.first_token_gap_ms.p50", all.gap, 50}, {"gateway.stream_ms.p50", all.tail, 50},
			{"gateway.metrics_get_ms.p50", all.metricsGet, 50},
		} {
			if v, ok := percentile(p.v, p.q); ok {
				out.layers = append(out.layers, single(p.name, "ms", "lower", v*1e3, len(p.v)))
			}
		}
		out.layers = append(out.layers,
			single("gateway.sse_bytes_per_stream", "bytes", "lower", float64(all.bytes)/float64(g.streams), g.streams),
			single("gateway.dropped_events", "count", "lower", float64(all.dropped), g.streams),
		)
	}
	return out, nil
}

// half runs streams [from, to) on the closed-loop clients, client c
// taking every gatewayClients-th stream, and waits for all of them.
func (g *gatewayHTTP) half(live *liveGateway, from, to int, tracers []*tracer, stats []streamStats) {
	var wg sync.WaitGroup
	for c := range stats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr, st := tracers[c], &stats[c]
			br := bufio.NewReaderSize(nil, 4096)
			for i := from + c; i < to; i += gatewayClients {
				if err := g.stream(live.client, live.base, br, tr, i, st); err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("stream %d: %w", i, err)
					}
				}
				// With tracing on, one client also polls the metrics
				// endpoint every 25 of its streams.
				if tr != nil && c == 0 && (i/gatewayClients)%25 == 24 {
					if d, err := g.metricsGet(live.client, live.base, tr); err == nil {
						st.metricsGet = append(st.metricsGet, d)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// stream runs one completion: POST, then read the SSE stream to [DONE],
// checking it carries exactly one admission, one first_token,
// gatewayTokens token events, one completion, and nothing dropped.
func (g *gatewayHTTP) stream(client *http.Client, base string, br *bufio.Reader, tr *tracer, id int, st *streamStats) error {
	root := tr.begin("http.request", id)
	defer tr.end(root)
	sent := time.Now()
	h := tr.begin("http.headers", id)
	resp, err := client.Post(base+"/v1/completions", "application/json", bytes.NewReader(gatewayBody))
	tr.end(h)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	headersAt := time.Now()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br.Reset(resp.Body)
	phase := tr.begin("http.first_token", id)
	var admissions, firsts, tokens, completions, dropped int
	var firstAt time.Time
	doneSeen := false
	for !doneSeen {
		line, err := br.ReadSlice('\n')
		st.bytes += len(line)
		if err != nil {
			tr.end(phase)
			return fmt.Errorf("stream ended before [DONE]: %w", err)
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: token")):
			tokens++
		case bytes.HasPrefix(line, []byte("event: first_token")):
			firsts++
			firstAt = time.Now()
			tr.end(phase)
			phase = tr.begin("http.stream", id)
		case bytes.HasPrefix(line, []byte("event: admission")):
			admissions++
		case bytes.HasPrefix(line, []byte("event: completion")):
			completions++
		case bytes.HasPrefix(line, []byte("event: dropped")):
			dropped++
		case bytes.HasPrefix(line, []byte("data: [DONE]")):
			doneSeen = true
		}
	}
	tr.end(phase)
	end := time.Now()
	st.dropped += dropped
	if admissions != 1 || firsts != 1 || tokens != gatewayTokens || completions != 1 || dropped != 0 {
		return fmt.Errorf("stream carried %d admission, %d first_token, %d token, %d completion, %d dropped events",
			admissions, firsts, tokens, completions, dropped)
	}
	st.ttft = append(st.ttft, firstAt.Sub(sent).Seconds())
	st.e2e = append(st.e2e, end.Sub(sent).Seconds())
	st.headers = append(st.headers, headersAt.Sub(sent).Seconds())
	st.gap = append(st.gap, firstAt.Sub(headersAt).Seconds())
	st.tail = append(st.tail, end.Sub(firstAt).Seconds())
	return nil
}

// metricsGet times one GET /v1/metrics.
func (g *gatewayHTTP) metricsGet(client *http.Client, base string, tr *tracer) (float64, error) {
	h := tr.begin("http.metrics_get", -1)
	defer tr.end(h)
	start := time.Now()
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return time.Since(start).Seconds(), err
}
