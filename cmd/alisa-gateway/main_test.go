package main

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	alisa "repro"
)

func TestValidateFlags(t *testing.T) {
	ok := func(addr string, scale float64, buffer int, onFull string, drain time.Duration) func(*testing.T) {
		return func(t *testing.T) {
			if err := validateFlags(addr, scale, buffer, onFull, drain); err != nil {
				t.Fatalf("validateFlags: unexpected error %v", err)
			}
		}
	}
	bad := func(addr string, scale float64, buffer int, onFull string, drain time.Duration, wantErr string) func(*testing.T) {
		return func(t *testing.T) {
			err := validateFlags(addr, scale, buffer, onFull, drain)
			if err == nil {
				t.Fatal("validateFlags: want error, got nil")
			}
			if !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("validateFlags: error %q does not contain %q", err, wantErr)
			}
		}
	}

	t.Run("defaults", ok("127.0.0.1:8080", 1, 64, "drop", 30*time.Second))
	t.Run("ephemeral port", ok("127.0.0.1:0", 0, 1, "block", time.Second))
	t.Run("wildcard host", ok(":9090", 100, 8, "drop", time.Minute))

	t.Run("missing port", bad("127.0.0.1", 1, 64, "drop", time.Second, "-addr must be host:port"))
	t.Run("negative port", bad("127.0.0.1:-1", 1, 64, "drop", time.Second, "port must be in [0, 65535]"))
	t.Run("oversized port", bad("127.0.0.1:70000", 1, 64, "drop", time.Second, "port must be in [0, 65535]"))
	t.Run("textual port", bad("127.0.0.1:http", 1, 64, "drop", time.Second, "port must be numeric"))
	t.Run("negative time scale", bad("127.0.0.1:8080", -1, 64, "drop", time.Second, "-time-scale"))
	t.Run("NaN time scale", bad("127.0.0.1:8080", math.NaN(), 64, "drop", time.Second, "-time-scale"))
	t.Run("Inf time scale", bad("127.0.0.1:8080", math.Inf(1), 64, "drop", time.Second, "-time-scale"))
	t.Run("zero buffer", bad("127.0.0.1:8080", 1, 0, "drop", time.Second, "-buffer must be positive"))
	t.Run("negative buffer", bad("127.0.0.1:8080", 1, -4, "drop", time.Second, "-buffer must be positive"))
	t.Run("unknown on-full", bad("127.0.0.1:8080", 1, 64, "oldest", time.Second, `unknown -on-full "oldest"`))
	t.Run("zero drain timeout", bad("127.0.0.1:8080", 1, 64, "drop", 0, "-drain-timeout must be positive"))
}

// TestEngineOptsBaselinesDense pins that -sparsity and -bits reach only
// ALISA: a baseline built from the flag defaults serves exactly as one
// compiled without them, while ALISA's result changes with them.
func TestEngineOptsBaselinesDense(t *testing.T) {
	trace := alisa.PoissonTrace(12, 2, 5)
	serve := func(opts ...alisa.Option) *alisa.ServeResult {
		t.Helper()
		eng, err := alisa.New("opt-6.7b", opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Serve(context.Background(), trace)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range []struct {
		sched string
		same  bool
	}{{"vllm", true}, {"alisa", false}} {
		got := serve(engineOpts("", tc.sched, 0.8, 8, 8, 10, 0.5, 256)...)
		plain := serve(alisa.WithScheduler(tc.sched), alisa.WithMaxBatch(8),
			alisa.WithSLO(10, 0.5), alisa.WithMetricsWindow(256))
		if same := reflect.DeepEqual(got, plain); same != tc.same {
			t.Errorf("%s: result with -sparsity/-bits equal to dense FP16 = %v, want %v", tc.sched, same, tc.same)
		}
	}
}
