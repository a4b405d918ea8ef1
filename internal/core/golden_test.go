package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace"
)

// simulateDigest hashes everything a lockstep run reports at full float
// precision: every Result field and the ledger's seconds in every
// category (the breakdown's String rounds them to milliseconds). The
// error text is left out (OOM stays in), so rewording a message moves no
// digest.
func simulateDigest(res *Result) string {
	r := *res
	r.Breakdown = trace.Breakdown{}
	r.Err = nil
	h := sha256.New()
	fmt.Fprintf(h, "%v\n%v", r, res.Breakdown[:])
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenSim is one lockstep run at input 128, output 512.
func goldenSim(name string, prof memsim.Profile, s func() sched.Scheduler, batch int, sparsity float64, bits int) Config {
	return Config{
		Model: model.MustByName(name), Profile: prof, Scheduler: s(),
		Batch: batch, Input: 128, Output: 512,
		KVSparsity: sparsity, KVBits: bits,
	}
}

// byName defers sched.MustByName so every case gets a fresh scheduler.
func byName(name string) func() sched.Scheduler {
	return func() sched.Scheduler { return sched.MustByName(name) }
}

// pcieSplit defers sched.NewPCIeSplit the same way.
func pcieSplit(cpuFrac float64) func() sched.Scheduler {
	return func() sched.Scheduler { return sched.NewPCIeSplit(cpuFrac) }
}

// TestSimulateGoldenDigests pins lockstep core.Run Results across
// commits, the twin of serve's TestServeGoldenDigests: every canonical
// scheduler-table name and the Fig. 1 PCIe split, at shapes that reach
// each placement regime (partial, whole and no CPU share, OOM, sparse
// INT8, vLLM waves, ALISA's phases).
func TestSimulateGoldenDigests(t *testing.T) {
	for _, c := range simulateGoldens() {
		t.Run(c.name, func(t *testing.T) {
			res, _ := Run(context.Background(), c.cfg)
			if res == nil {
				t.Fatal("no result")
			}
			if got := simulateDigest(res); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// TestLedgerTracksClock checks that the time ledger accounts for the
// whole run on every pinned lockstep run, OOM exits included: a wave's
// clock moves only through ledger charges, so the seven categories sum
// to TotalSeconds up to the rounding of two float accumulators.
func TestLedgerTracksClock(t *testing.T) {
	for _, c := range simulateGoldens() {
		t.Run(c.name, func(t *testing.T) {
			res, _ := Run(context.Background(), c.cfg)
			if res == nil {
				t.Fatal("no result")
			}
			var sum float64
			for _, v := range res.Breakdown {
				sum += v
			}
			if gap := math.Abs(sum - res.TotalSeconds); gap > 1e-9*res.TotalSeconds {
				t.Errorf("ledger sums to %v s, clock %v s (gap %g)", sum, res.TotalSeconds, gap)
			}
		})
	}
}

// simulateGolden is one pinned lockstep run and its digest.
type simulateGolden struct {
	name string
	cfg  Config
	want string
}

// simulateGoldens returns the pinned lockstep runs, each with a fresh
// scheduler.
func simulateGoldens() []simulateGolden {
	v16, v32, h100 := memsim.V100_16G(), memsim.V100_32G(), memsim.H100_80G()
	return []simulateGolden{
		{"alisa/b32-sparse-int8", goldenSim("opt-6.7b", v16, byName("alisa"), 32, 0.8, 8), "27dccc1326760979"},
		{"alisa/b64-sparse-int8", goldenSim("opt-6.7b", v16, byName("alisa"), 64, 0.8, 8), "21c244a1d482db9e"},
		{"alisa/b64-dense", goldenSim("opt-6.7b", v16, byName("alisa"), 64, 0, 16), "e8716d259f87e5b8"},
		{"alisa/opt-30b-b64-phase3", goldenSim("opt-30b", h100, byName("alisa"), 64, 0.8, 8), "8cabe31bd46cee34"},
		{"vllm/b64-waves", goldenSim("opt-6.7b", v16, byName("vllm"), 64, 0, 16), "fc52be39e6db2cc0"},
		{"flexgen/b64-partial", goldenSim("opt-6.7b", v16, byName("flexgen"), 64, 0, 16), "9254a7dcb47dc504"},
		{"flexgen/b64-sparse-int8", goldenSim("opt-6.7b", v16, byName("flexgen"), 64, 0.8, 8), "67ee032d9768187e"},
		{"flexgen/b8-h100", goldenSim("opt-6.7b", h100, byName("flexgen"), 8, 0, 16), "1a0cb2d19d235afb"},
		{"hf-accelerate/b16", goldenSim("opt-6.7b", v16, byName("hf-accelerate"), 16, 0, 16), "980f2f2c30ef19dc"},
		{"hf-accelerate/b16-sparse-int8", goldenSim("opt-6.7b", v16, byName("hf-accelerate"), 16, 0.8, 8), "c4434578fd256fe6"},
		{"gpu-only/b4", goldenSim("opt-6.7b", v16, byName("gpu-only"), 4, 0, 16), "952307ca16b65421"},
		{"gpu-only/b8-oom", goldenSim("opt-6.7b", v16, byName("gpu-only"), 8, 0, 16), "3cd5776dd0f6d7b8"},
		{"gpu-only/b64-oom", goldenSim("opt-6.7b", v16, byName("gpu-only"), 64, 0, 16), "7ee611ce612223d1"},
		{"deepspeed-zero/b4", goldenSim("opt-6.7b", v16, byName("deepspeed-zero"), 4, 0, 16), "67cbbfe58428efcc"},
		{"deepspeed-zero/b64-oom", goldenSim("opt-6.7b", v16, byName("deepspeed-zero"), 64, 0, 16), "61e30af0b9539967"},
		{"no-cache/b8", goldenSim("opt-6.7b", v16, byName("no-cache"), 8, 0, 16), "f9687bc8498db8ea"},
		{"pcie-split/0", goldenSim("opt-6.7b", v32, pcieSplit(0), 16, 0, 16), "d45ab91a208c1980"},
		{"pcie-split/0.5", goldenSim("opt-6.7b", v32, pcieSplit(0.5), 16, 0, 16), "8726dc26edb75193"},
		{"pcie-split/1", goldenSim("opt-6.7b", v32, pcieSplit(1), 16, 0, 16), "5a7470aa59b7a6cb"},
		{"pcie-split/0.5-oom", goldenSim("opt-6.7b", v16, pcieSplit(0.5), 64, 0, 16), "4d48dd8981b2e85c"},
	}
}
