package main

import (
	"context"
	"reflect"
	"strings"
	"testing"

	alisa "repro"
	"repro/internal/sched"
)

// TestValidateFlags drives each subcommand's flag parsing with the
// values its old per-binary validator was tested on, one subtest per
// subcommand.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		cmd, name, args, wantErr string
	}{
		{"serve", "defaults", "", ""},
		{"serve", "parallel zero is GOMAXPROCS", "-parallel 0 -rates 1,2", ""},
		{"serve", "zero n", "-n 0", "-n must be positive"},
		{"serve", "negative n", "-n -3", "-n must be positive"},
		{"serve", "negative parallel", "-parallel -2", "-parallel must be ≥ 0"},
		{"serve", "rates and closed-loop", "-rates 1,2 -closed-loop 4,8", "pick one"},
		{"serve", "negative think", "-think -0.1", "-think must be ≥ 0"},
		{"serve", "closed loop alone", "-closed-loop 4,8 -think 0", ""},
		{"serve", "conv open loop", "-workload conv -prefix-cache", ""},
		{"serve", "conv closed loop", "-workload conv -prefix-cache -closed-loop 2,4", ""},
		{"serve", "agent closed loop", "-workload agent -prefix-cache -closed-loop 2,4", ""},
		{"serve", "agent open loop", "-workload agent -prefix-cache", "closed-loop only"},
		{"serve", "rag open loop", "-workload rag -prefix-cache", ""},
		{"serve", "rag closed loop", "-workload rag -prefix-cache -closed-loop 2,4", "open-loop only"},
		{"serve", "unknown workload", "-workload batch", "unknown -workload"},
		{"serve", "zero prefix block", "-workload conv -prefix-cache -prefix-block 0", "-prefix-block must be positive"},
		{"serve", "negative prefix block", "-prefix-cache -prefix-block -8", "-prefix-block must be positive"},
		{"serve", "bad block ignored when cache off", "-prefix-block 0", ""},

		{"cluster", "defaults", "", ""},
		{"cluster", "parallel zero is GOMAXPROCS", "-parallel 0 -replicas 1", ""},
		{"cluster", "zero n", "-n 0 -replicas 1", "-n must be positive"},
		{"cluster", "negative parallel", "-parallel -1 -replicas 1", "-parallel must be ≥ 0"},
		{"cluster", "empty sizes", "-replicas ,", "at least one fleet size"},
		{"cluster", "zero size", "-replicas 0", "want a positive integer"},
		{"cluster", "unknown router", "-replicas 1 -routers wat", "unknown router"},
		{"cluster", "size above as-max", "-replicas 8 -autoscale -as-max 4", "exceeds -as-max"},
		{"cluster", "bad as-target", "-replicas 1 -autoscale -as-target 1.5", "-as-target must be in"},
		{"cluster", "autoscale ok", "-replicas 2 -autoscale", ""},

		{"gateway", "defaults", "", ""},
		{"gateway", "ephemeral port", "-addr 127.0.0.1:0 -time-scale 0 -buffer 1 -drain-timeout 1s", ""},
		{"gateway", "wildcard host", "-addr :9090 -time-scale 100 -buffer 8 -drain-timeout 1m", ""},
		{"gateway", "missing port", "-addr 127.0.0.1", "-addr must be host:port"},
		{"gateway", "negative port", "-addr 127.0.0.1:-1", "port must be in [0, 65535]"},
		{"gateway", "oversized port", "-addr 127.0.0.1:70000", "port must be in [0, 65535]"},
		{"gateway", "textual port", "-addr 127.0.0.1:http", "port must be numeric"},
		{"gateway", "negative time scale", "-time-scale -1", "-time-scale"},
		{"gateway", "NaN time scale", "-time-scale NaN", "-time-scale"},
		{"gateway", "Inf time scale", "-time-scale Inf", "-time-scale"},
		{"gateway", "zero buffer", "-buffer 0", "-buffer must be positive"},
		{"gateway", "negative buffer", "-buffer -4", "-buffer must be positive"},
		{"gateway", "unknown on-full", "-on-full drop", errUsage.Error()},
		{"gateway", "zero drain timeout", "-drain-timeout 0s", "-drain-timeout must be positive"},
	}
	for _, cmd := range []string{"serve", "cluster", "gateway"} {
		t.Run(cmd, func(t *testing.T) {
			for _, tc := range cases {
				if tc.cmd != cmd {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					_, err := parseFlags(tc.cmd, strings.Fields(tc.args))
					if tc.wantErr == "" {
						if err != nil {
							t.Fatalf("unexpected error %v", err)
						}
						return
					}
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("err %v, want substring %q", err, tc.wantErr)
					}
				})
			}
		})
	}
}

func TestParseLists(t *testing.T) {
	sizes, err := parseInts(" 1, 2 ,4", "-replicas")
	if err != nil || len(sizes) != 3 || sizes[2] != 4 {
		t.Fatalf("parseInts: %v %v", sizes, err)
	}
	if _, err := parseInts("1,x", "-replicas"); err == nil {
		t.Fatal("parseInts accepted a non-integer")
	}
	rates, err := parseRates("0.5, 2", "-rates")
	if err != nil || len(rates) != 2 || rates[0] != 0.5 {
		t.Fatalf("parseRates: %v %v", rates, err)
	}
	if _, err := parseRates("-1", "-rates"); err == nil {
		t.Fatal("parseRates accepted a negative rate")
	}
	if got := splitList(" a, ,b "); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("splitList: %v", got)
	}
}

// TestEngineOptionsBaselinesDense pins that -sparsity and -bits reach
// only ALISA: at the flag defaults, every other name WithScheduler
// accepts simulates exactly as an engine with only WithScheduler set
// (dense FP16), while ALISA's result changes with them.
func TestEngineOptionsBaselinesDense(t *testing.T) {
	f, err := parseFlags("sim", nil)
	if err != nil {
		t.Fatal(err)
	}
	shape := alisa.Shape{Batch: f.batch, Input: f.input, Output: f.output}
	simulate := func(opts ...alisa.Option) *alisa.Result {
		t.Helper()
		eng, err := alisa.New(f.model, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Simulate(context.Background(), shape)
		if res == nil {
			t.Fatal(err)
		}
		return res
	}
	for _, name := range sched.Registered() {
		got := simulate(f.engineOptions(name)...)
		plain := simulate(alisa.WithScheduler(name))
		if same := reflect.DeepEqual(got, plain); same != (name != "alisa") {
			t.Errorf("%s: result at the flag defaults equal to dense FP16 = %v, want %v", name, same, name != "alisa")
		}
	}
}
