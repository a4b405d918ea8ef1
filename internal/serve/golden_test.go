package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/memsim"
	"repro/internal/workload"
)

// goldenDigest hashes everything a serving run reports: the replay
// fingerprint (observer stream and per-request records) plus every
// Result field at full float precision, the stage breakdown included.
func goldenDigest(res *Result, stream []string) string {
	h := sha256.New()
	fmt.Fprint(h, resultFingerprint(res, stream))
	r := *res
	r.Breakdown = nil
	fmt.Fprintf(h, "\n%v\n%v", r, *res.Breakdown)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenRun is one finalized run and its recorded observer stream.
type goldenRun struct {
	res    *Result
	stream []string
}

// goldenRecorded runs cfg through a recorded Run.
func goldenRecorded(cfg Config) func(t *testing.T) []goldenRun {
	return func(t *testing.T) []goldenRun {
		res, stream := recordedRun(t, cfg)
		return []goldenRun{{res, stream}}
	}
}

// goldenScale returns cfg in scale mode from the first request.
func goldenScale(cfg Config) Config {
	cfg.ExactMetrics = -1
	return cfg
}

// goldenSwitch streams PoissonTrace(900, 6.0, 11) into a vllm loop with
// 20 turns after every second injection, so the exact→scale switch at
// injection 401 fires with hundreds of records already completed, out
// of insertion order.
func goldenSwitch(t *testing.T) []goldenRun {
	cfg := lightConfig("vllm")
	cfg.Trace = nil
	cfg.MaxBatch = 16
	cfg.ExactMetrics = 400
	l, rec := recordedLoop(t, cfg)
	ctx := context.Background()
	for i, r := range workload.PoissonTrace(900, 6.0, 11) {
		if err := l.Inject(r); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			for j := 0; j < 20; j++ {
				if _, err := l.Advance(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return []goldenRun{{drainResult(t, l), rec.events}}
}

// goldenOutOfOrder injects requests whose arrivals, insertion order and
// completion order all disagree, including arrivals behind the clock.
func goldenOutOfOrder(t *testing.T) []goldenRun {
	cfg := lightConfig("vllm")
	cfg.Trace = nil
	l, rec := recordedLoop(t, cfg)
	inject := func(reqs ...workload.Request) {
		t.Helper()
		for _, r := range reqs {
			if err := l.Inject(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	inject(
		workload.Request{ID: 10, Arrival: 2.0, Input: 96, Output: 48},
		workload.Request{ID: 3, Arrival: 0.5, Input: 200, Output: 8},
		workload.Request{ID: 7, Arrival: 1.0, Input: 64, Output: 96},
		workload.Request{ID: 1, Arrival: 0, Input: 128, Output: 16},
		workload.Request{ID: 5, Arrival: 1.0, Input: 32, Output: 4},
	)
	advanceTurns(t, l, 30)
	inject(
		workload.Request{ID: 2, Arrival: 0.2, Input: 48, Output: 24},
		workload.Request{ID: 8, Arrival: l.Clock() + 0.3, Input: 256, Output: 2},
		workload.Request{ID: 4, Arrival: 0.1, Input: 80, Output: 64},
	)
	advanceTurns(t, l, 10)
	inject(workload.Request{ID: 6, Arrival: 0, Input: 16, Output: 1})
	return []goldenRun{{drainResult(t, l), rec.events}}
}

// goldenFork forks cfg k turns in and drains the original and the fork.
func goldenFork(cfg Config, k int) func(t *testing.T) []goldenRun {
	return func(t *testing.T) []goldenRun {
		orig, origRec, fork, forkRec := forkAt(t, cfg, k)
		return []goldenRun{{drainResult(t, orig), origRec.events}, {drainResult(t, fork), forkRec.events}}
	}
}

// goldenCancel cancels cfg after 150 turns, when replayConfig("alisa")
// has requests completed, active and pending, and finalizes the partial
// run.
func goldenCancel(cfg Config) func(t *testing.T) []goldenRun {
	return func(t *testing.T) []goldenRun {
		l, rec := recordedLoop(t, cfg)
		advanceTurns(t, l, 150)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := l.Advance(ctx); err != context.Canceled {
			t.Fatalf("cancelled Advance: %v, want context.Canceled", err)
		}
		return []goldenRun{{l.Finalize(), rec.events}}
	}
}

// goldenPrefix serves a conversation trace with the prefix cache on.
func goldenPrefix(t *testing.T) []goldenRun {
	tr, err := workload.NewConversationTrace(6, 5, 4, 2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lightConfig("vllm")
	cfg.Profile = memsim.V100_32G()
	cfg.Trace = tr
	cfg.PrefixBlock = 16
	return goldenRecorded(cfg)(t)
}

// TestServeGoldenDigests pins serving Results across commits: the replay
// and fork suites compare two runs of one build, so a change that moves
// every run alike passes them. Each case hard-codes the digest of its
// Result and observer stream; a forked case lists the original's digest
// first, then the fork's.
func TestServeGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) []goldenRun
		want []string
	}{
		{"replay/alisa", goldenRecorded(replayConfig("alisa")), []string{"75ea191b67e57f59"}},
		{"replay/vllm", goldenRecorded(replayConfig("vllm")), []string{"e28d2199ad1d10ae"}},
		{"replay/hf-accelerate", goldenRecorded(replayConfig("hf-accelerate")), []string{"f8d669a1b4c1d393"}},
		{"replay/flexgen", goldenRecorded(replayConfig("flexgen")), []string{"86eb69a791e7ba85"}},
		{"replay/gpu-only", goldenRecorded(replayConfig("gpu-only")), []string{"8b03e1cb46cd9b53"}},
		{"replay-scale/alisa", goldenRecorded(goldenScale(replayConfig("alisa"))), []string{"4a0ecb1557b3ea10"}},
		{"replay-scale/vllm", goldenRecorded(goldenScale(replayConfig("vllm"))), []string{"03a238e39e625a7d"}},
		{"replay-scale/hf-accelerate", goldenRecorded(goldenScale(replayConfig("hf-accelerate"))), []string{"9d5c9d467ff297fe"}},
		{"replay-scale/flexgen", goldenRecorded(goldenScale(replayConfig("flexgen"))), []string{"5c2b0e9335a73b41"}},
		{"replay-scale/gpu-only", goldenRecorded(goldenScale(replayConfig("gpu-only"))), []string{"01c0a03e64b29874"}},
		{"preemption", goldenRecorded(preemptionConfig(8)), []string{"84f7a9b30e014936"}},
		{"preemption-scale", goldenRecorded(goldenScale(preemptionConfig(8))), []string{"da5204143b9e1233"}},
		{"mid-run-switch", goldenSwitch, []string{"4dfcdc5569dbf25b"}},
		{"out-of-order", goldenOutOfOrder, []string{"384ae96a8f5395c7"}},
		{"fork", goldenFork(replayConfig("alisa"), 40), []string{"75ea191b67e57f59", "75ea191b67e57f59"}},
		{"fork-scale", goldenFork(goldenScale(replayConfig("alisa")), 40), []string{"4a0ecb1557b3ea10", "4a0ecb1557b3ea10"}},
		{"fork-completed", goldenFork(replayConfig("alisa"), 150), []string{"75ea191b67e57f59", "75ea191b67e57f59"}},
		{"fork-completed-scale", goldenFork(goldenScale(replayConfig("alisa")), 150), []string{"4a0ecb1557b3ea10", "4a0ecb1557b3ea10"}},
		{"cancelled", goldenCancel(replayConfig("alisa")), []string{"479049e8c25ecc65"}},
		{"cancelled-scale", goldenCancel(goldenScale(replayConfig("alisa"))), []string{"7a298ff3df0949a0"}},
		{"prefix-cache", goldenPrefix, []string{"4ced291838291068"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := c.run(t)
			if len(runs) != len(c.want) {
				t.Fatalf("%d runs, want %d digests", len(runs), len(c.want))
			}
			for i, r := range runs {
				if got := goldenDigest(r.res, r.stream); got != c.want[i] {
					t.Errorf("run %d: digest %s, want %s", i, got, c.want[i])
				}
			}
		})
	}
}
