package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	alisa "repro"
	"repro/internal/gateway"
)

// Connection limits of the gateway's HTTP server. Completions are small
// JSON requests answered by long-lived SSE streams, so only the header
// phase and idle keep-alives are bounded: a write timeout would cut
// streams.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newServer wraps the gateway in an http.Server that bounds the header
// phase, so a client that trickles or bloats its headers cannot hold a
// connection and its goroutine.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// runGateway serves the streaming simulation over HTTP: an OpenAI-style
// completions endpoint where every request becomes a Session.Push and
// its lifecycle events (admission, first token, per-token, completion)
// stream back as server-sent events, plus a rolling-window metrics
// snapshot and health/readiness probes. Point any HTTP load generator at
// it and measure wall-clock TTFT against offered request rate.
//
//	POST /v1/completions     {"input_tokens":128,"max_tokens":32,"stream":true}
//	GET  /v1/metrics         rolling TTFT/TPOT/E2E percentiles + goodput
//	GET  /healthz            process liveness
//	GET  /readyz             503 once draining
//	POST /v1/admin/release   open a -hold gateway
//
// Cancelling ctx (SIGTERM/SIGINT) drains gracefully: admission stops
// (readyz flips to 503), every pending and in-flight request runs to
// completion with its SSE stream flushed, and the final metrics are
// logged. A drain that outlives -drain-timeout is aborted with partial
// metrics.
func runGateway(ctx context.Context, args []string, stdout io.Writer) error {
	f, err := parseFlags("gateway", args)
	if err != nil {
		return err
	}
	eng, err := alisa.New(f.model, f.engineOptions(f.sched)...)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	gw, err := gateway.New(gateway.Config{
		Engine: eng, TimeScale: f.timeScale,
		Buffer: f.buffer, Hold: f.hold, Logger: logger,
	})
	if err != nil {
		ln.Close()
		return err
	}
	fmt.Fprintf(stdout, "alisa gateway listening on http://%s\n", ln.Addr())
	logger.Info("gateway: serving", "addr", ln.Addr().String(),
		"model", eng.Model(), "profile", eng.Profile(), "sched", eng.Scheduler(),
		"time_scale", f.timeScale, "buffer", f.buffer, "hold", f.hold)

	srv := newServer(gw)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		gw.Abort()
		return err
	}

	// Graceful drain: stop admitting, finish everything in flight (SSE
	// streams flush as their requests complete), then close the session
	// and log the final metrics. Past the budget, abort with partial
	// metrics rather than hang.
	logger.Info("gateway: signal received, draining", "timeout", f.drainTimeout)
	drained := make(chan struct{})
	go func() {
		if _, err := gw.Drain(context.WithoutCancel(ctx)); err != nil {
			logger.Error("gateway: drain", "err", err)
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(f.drainTimeout):
		logger.Error("gateway: drain timeout, aborting")
		gw.Abort()
		<-drained
	}
	shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("gateway: http shutdown", "err", err)
	}
	logger.Info("gateway: stopped")
	return nil
}
