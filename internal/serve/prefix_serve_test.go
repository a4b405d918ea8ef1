package serve

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// convTrace is the shared multi-turn workload of the prefix-cache tests:
// interleaved conversations whose turns replay growing histories — the
// regime the cache is built for.
func convTrace(t testing.TB) workload.Trace {
	t.Helper()
	tr, err := workload.NewConversationTrace(6, 8, 4.0, 2048, 21)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// prefixConfig is the cache-on baseline config of these tests. The 32G
// card leaves the cache a budget (a quarter of post-static headroom)
// that actually holds the working set of shared histories; on a 16G
// card next to 6.7B weights the cache thrashes, which the budget-
// pressure tests cover separately.
func prefixConfig(scheduler string, tr workload.Trace) Config {
	return Config{
		Model:       model.MustByName("opt-6.7b"),
		Profile:     memsim.V100_32G(),
		Scheduler:   scheduler,
		Trace:       tr,
		KVBits:      16,
		MaxBatch:    8,
		PrefixBlock: 16,
	}
}

// stripTokens returns the trace with every request's token IDs dropped —
// same shapes, same timeline, anonymous prompts.
func stripTokens(tr workload.Trace) workload.Trace {
	out := make(workload.Trace, len(tr))
	for i, r := range tr {
		r.Tokens = nil
		out[i] = r
	}
	return out
}

// TestPrefixCacheOffBitIdentical pins the compatibility contract: with
// the cache off (PrefixBlock 0), a token-carrying trace and the same
// trace with tokens stripped produce byte-identical results — token IDs
// are inert until the cache is enabled.
func TestPrefixCacheOffBitIdentical(t *testing.T) {
	tr := convTrace(t)
	cfg := prefixConfig("alisa", tr)
	cfg.PrefixBlock = 0
	withTokens, withStream := recordedRun(t, cfg)
	cfg.Trace = stripTokens(tr)
	without, withoutStream := recordedRun(t, cfg)
	if !reflect.DeepEqual(withTokens, without) {
		t.Fatalf("cache-off run depends on token IDs:\nwith:    %+v\nwithout: %+v", withTokens, without)
	}
	checkStream(t, "cache-off stream without tokens", withStream, withoutStream)
	if withTokens.PrefixHits != 0 || withTokens.PrefixCachedTokens != 0 || withTokens.PrefixSharedBytes != 0 {
		t.Fatalf("cache-off run reported prefix activity: %+v", withTokens)
	}
}

// TestPrefixCacheReducesPrefill pins the acceptance criterion: on the
// multi-turn conversation workload the cache cuts prefilled tokens by at
// least 2x and improves TTFT and goodput.
func TestPrefixCacheReducesPrefill(t *testing.T) {
	tr := convTrace(t)
	off := prefixConfig("alisa", tr)
	off.PrefixBlock = 0
	roff, err := Run(context.Background(), off)
	if err != nil {
		t.Fatal(err)
	}
	ron, err := Run(context.Background(), prefixConfig("alisa", tr))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(ron.Requests), len(tr); got != want {
		t.Fatalf("cache-on run completed %d of %d", got, want)
	}
	if ron.PrefixHits == 0 || ron.PrefixCachedTokens == 0 {
		t.Fatalf("no cache hits on the conversation workload: %+v", ron)
	}
	if 2*ron.PrefillTokens > roff.PrefillTokens {
		t.Errorf("prefill reduction under 2x: off=%d on=%d tokens", roff.PrefillTokens, ron.PrefillTokens)
	}
	if ron.TTFT.Mean >= roff.TTFT.Mean {
		t.Errorf("mean TTFT did not improve: off=%.6f on=%.6f", roff.TTFT.Mean, ron.TTFT.Mean)
	}
	if ron.Goodput <= roff.Goodput {
		t.Errorf("goodput did not improve: off=%.3f on=%.3f tok/s", roff.Goodput, ron.Goodput)
	}
	if ron.PrefixSharedBytes <= 0 {
		t.Errorf("no shared bytes recorded: %d", ron.PrefixSharedBytes)
	}
}

// TestPrefixFullHitExactAccounting replays one prompt twice: the second
// admission must hit everything except the final block (a sequence's
// first logits are always computed), with the counters exact.
func TestPrefixFullHitExactAccounting(t *testing.T) {
	gen := workload.NewGenerator(512, 3)
	tok := gen.Prompt(96)
	tr := workload.Trace{
		{ID: 0, Arrival: 0, Input: 96, Output: 16, Tokens: tok},
		{ID: 1, Arrival: 30, Input: 96, Output: 16, Tokens: append([]int(nil), tok...)},
	}
	res, err := Run(context.Background(), prefixConfig("alisa", tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefixHits != 1 || res.PrefixMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", res.PrefixHits, res.PrefixMisses)
	}
	// 96 tokens = 6 blocks of 16; the full 96-token match is capped to 80
	// so the last block prefills.
	if res.PrefixCachedTokens != 80 {
		t.Fatalf("cached tokens %d, want 80", res.PrefixCachedTokens)
	}
	if res.PrefillTokens != 96+16 {
		t.Fatalf("prefilled tokens %d, want %d", res.PrefillTokens, 96+16)
	}
	if r0, r1 := res.Requests[0], res.Requests[1]; r1.FirstToken-r1.Admitted >= r0.FirstToken-r0.Admitted {
		t.Fatalf("hit admission not faster: miss prefill %.9f, hit prefill %.9f",
			r0.FirstToken-r0.Admitted, r1.FirstToken-r1.Admitted)
	}
}

// TestPrefixLeakFree drains a cache-on conversation run for every
// servable scheduler: Drain's end-of-run check verifies both the memsim
// accounting (static + cache residency, to the byte) and the cache's own
// invariants with every lease released.
func TestPrefixLeakFree(t *testing.T) {
	for _, name := range servable {
		t.Run(name, func(t *testing.T) {
			cfg := prefixConfig(name, convTrace(t))
			cfg.MaxBatch = 4
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(res.Requests) != len(cfg.Trace) {
				t.Fatalf("completed %d of %d", len(res.Requests), len(cfg.Trace))
			}
		})
	}
}

// TestPrefixLeakFreeUnderPreemption adds memory pressure: long shared-
// prefix sequences on a policy that cannot offload, so sequences are
// preempted mid-flight with leases held — the release paths that only
// fire under pressure.
func TestPrefixLeakFreeUnderPreemption(t *testing.T) {
	gen := workload.NewGenerator(512, 9)
	shared := gen.Prompt(512)
	tr := make(workload.Trace, 4)
	for i := range tr {
		tail := gen.Prompt(512)
		tokens := make([]int, 0, 1024)
		tokens = append(tokens, shared...)
		tokens = append(tokens, tail...)
		tr[i] = workload.Request{ID: i, Arrival: float64(i) * 0.05, Input: 1024, Output: 512, Tokens: tokens}
	}
	cfg := prefixConfig("gpu-only", tr)
	// The 16G card's ~1.8 GB of post-weights headroom cannot hold four
	// dense 1536-token sequences: preemption is guaranteed.
	cfg.Profile = memsim.V100_16G()
	cfg.MaxBatch = 4
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Preemptions == 0 {
		t.Fatalf("expected preemptions under forced GPU pressure (peak GPU %d)", res.PeakGPU)
	}
	for _, r := range res.Requests {
		if r.Finished <= 0 {
			t.Errorf("r%d never finished", r.ID)
		}
	}
}

// TestPrefixForkDeterminism extends the fork contract to cache-on runs:
// fork-then-advance is bit-identical to straight-line advance — Result
// and observer stream — with shared refcounted blocks and leases in
// flight.
func TestPrefixForkDeterminism(t *testing.T) {
	cfg := prefixConfig("alisa", convTrace(t))
	sl, straightRec := recordedLoop(t, cfg)
	straight := drainResult(t, sl)
	if straight.PrefixHits == 0 {
		t.Fatal("workload produced no cache hits; fork test would not exercise lease cloning")
	}

	sawLease := false
	for _, k := range []int{1, 6, 14} {
		l, rec, fork, forkRec := forkAt(t, cfg, k)
		for _, st := range l.s.active {
			if st.leaseLen > 0 {
				sawLease = true
			}
		}
		if got := drainResult(t, fork); !reflect.DeepEqual(got, straight) {
			t.Errorf("turn %d: cache-on fork diverged from straight-line:\nfork:     %+v\nstraight: %+v", k, got, straight)
		}
		checkStream(t, fmt.Sprintf("turn %d cache-on fork", k), straightRec.events, forkRec.events)
		if got := drainResult(t, l); !reflect.DeepEqual(got, straight) {
			t.Errorf("turn %d: snapshot perturbed the original cache-on run", k)
		}
		checkStream(t, fmt.Sprintf("turn %d cache-on original", k), straightRec.events, rec.events)
	}
	if !sawLease {
		t.Fatal("no snapshot point caught a held lease; lease cloning was never exercised")
	}
}

// BenchmarkPrefixServe measures a full cache-on conversation run —
// radix probes, COW inserts, lease churn, and eviction included.
func BenchmarkPrefixServe(b *testing.B) {
	tr := convTrace(b)
	cfg := prefixConfig("alisa", tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
