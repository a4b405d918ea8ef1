// Command alisa-gateway serves the streaming simulation over HTTP: an
// OpenAI-style completions endpoint where every request becomes a
// Session.Push and lifecycle events (admission, first token, per-token,
// completion) stream back as server-sent events, plus a rolling-window
// metrics snapshot and health/readiness probes. It turns the simulator
// into a load-testable service: point any HTTP load generator at it and
// measure wall-clock TTFT against offered request rate.
//
// Usage:
//
//	alisa-gateway                                # real-time pacing on :8080
//	alisa-gateway -time-scale 10                 # simulation runs 10× wall clock
//	alisa-gateway -time-scale 0                  # as fast as possible
//	alisa-gateway -addr 127.0.0.1:0              # ephemeral port (printed on stdout)
//	alisa-gateway -on-full block -buffer 16      # backpressure slow consumers
//	alisa-gateway -hold                          # gate the clock until
//	                                             # POST /v1/admin/release
//
// Endpoints:
//
//	POST /v1/completions     {"input_tokens":128,"max_tokens":32,"stream":true}
//	GET  /v1/metrics         rolling TTFT/TPOT/E2E percentiles + goodput
//	GET  /healthz            process liveness
//	GET  /readyz             503 once draining
//	POST /v1/admin/release   open a -hold gateway
//
// SIGTERM/SIGINT drains gracefully: admission stops (readyz flips to
// 503), every pending and in-flight request runs to completion with its
// SSE stream flushed, and the final metrics are logged. A drain that
// outlives -drain-timeout is aborted with partial metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	alisa "repro"
	"repro/internal/gateway"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = ephemeral; bound address printed on stdout)")
	modelName := flag.String("model", "opt-6.7b", "model catalog name")
	profile := flag.String("profile", "", "hardware profile (empty = paper default for the model)")
	sched := flag.String("sched", "alisa", "KV placement scheduler")
	sparsity := flag.Float64("sparsity", 0.8, "ALISA KV sparsity")
	bits := flag.Int("bits", 8, "ALISA KV bits")
	maxBatch := flag.Int("max-batch", 8, "decode batch cap")
	sloTTFT := flag.Float64("slo-ttft", 10, "TTFT SLO seconds (simulated)")
	sloTPOT := flag.Float64("slo-tpot", 0.5, "TPOT SLO seconds/token (simulated)")
	window := flag.Int("window", 256, "rolling metrics window, completions")
	timeScale := flag.Float64("time-scale", 1, "simulated seconds per wall second (0 = as fast as possible)")
	buffer := flag.Int("buffer", 64, "per-connection event buffer, events")
	onFull := flag.String("on-full", "drop", "slow-consumer policy: drop (oldest, with marker) or block (backpressure)")
	hold := flag.Bool("hold", false, "gate the simulated clock until POST /v1/admin/release")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before aborting")
	flag.Parse()

	if err := validateFlags(*addr, *timeScale, *buffer, *onFull, *drainTimeout); err != nil {
		fatal(err)
	}
	policy := gateway.DropOldest
	if *onFull == "block" {
		policy = gateway.Block
	}

	eng, err := alisa.New(*modelName,
		engineOpts(*profile, *sched, *sparsity, *bits, *maxBatch, *sloTTFT, *sloTPOT, *window)...)
	if err != nil {
		fatal(err)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	gw, err := gateway.New(gateway.Config{
		Engine: eng, TimeScale: *timeScale,
		Buffer: *buffer, OnFull: policy, Hold: *hold, Logger: logger,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("alisa-gateway listening on http://%s\n", ln.Addr())
	logger.Info("gateway: serving", "addr", ln.Addr().String(),
		"model", eng.Model(), "profile", eng.Profile(), "sched", eng.Scheduler(),
		"time_scale", *timeScale, "on_full", policy.String(), "buffer", *buffer, "hold", *hold)

	srv := &http.Server{Handler: gw}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-sigCtx.Done():
	case err := <-serveErr:
		fatal(err)
	}

	// Graceful drain: stop admitting, finish everything in flight (SSE
	// streams flush as their requests complete), then close the session
	// and log the final metrics. Past the budget, abort with partial
	// metrics rather than hang.
	logger.Info("gateway: signal received, draining", "timeout", *drainTimeout)
	drained := make(chan struct{})
	go func() {
		if _, err := gw.Drain(context.Background()); err != nil {
			logger.Error("gateway: drain", "err", err)
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(*drainTimeout):
		logger.Error("gateway: drain timeout, aborting")
		gw.Abort()
		<-drained
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("gateway: http shutdown", "err", err)
	}
	logger.Info("gateway: stopped")
}

// engineOpts assembles the engine options shared with the other CLIs.
// The baselines run dense FP16 KV; -sparsity and -bits are ALISA's.
func engineOpts(profile, sched string, sparsity float64, bits, maxBatch int, sloTTFT, sloTPOT float64, window int) []alisa.Option {
	opts := []alisa.Option{
		alisa.WithScheduler(sched),
		alisa.WithMaxBatch(maxBatch),
		alisa.WithSLO(sloTTFT, sloTPOT),
		alisa.WithMetricsWindow(window),
	}
	if sched == "alisa" {
		opts = append(opts, alisa.WithKVSparsity(sparsity), alisa.WithKVBits(bits))
	}
	if profile != "" {
		opts = append(opts, alisa.WithProfile(profile))
	}
	return opts
}

// validateFlags rejects unserviceable gateway flags up front, in the
// shared table-tested idiom of the other CLIs.
func validateFlags(addr string, timeScale float64, buffer int, onFull string, drainTimeout time.Duration) error {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("-addr must be host:port, got %q: %v", addr, err)
	}
	_ = host
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("-addr port must be numeric, got %q", portStr)
	}
	if port < 0 || port > 65535 {
		return fmt.Errorf("-addr port must be in [0, 65535], got %d", port)
	}
	if timeScale < 0 || math.IsNaN(timeScale) || math.IsInf(timeScale, 0) {
		return fmt.Errorf("-time-scale must be a finite dilation ≥ 0 (0 = as fast as possible), got %v", timeScale)
	}
	if buffer <= 0 {
		return fmt.Errorf("-buffer must be positive, got %d", buffer)
	}
	if onFull != "drop" && onFull != "block" {
		return fmt.Errorf("unknown -on-full %q (want drop or block)", onFull)
	}
	if drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", drainTimeout)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alisa-gateway:", err)
	os.Exit(1)
}
