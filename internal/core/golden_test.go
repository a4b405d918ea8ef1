package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
)

// simulateDigest hashes everything a lockstep run reports at full float
// precision: every Result field and the stage breakdown. The error text
// is left out (OOM stays in), so rewording a message moves no digest.
func simulateDigest(res *Result) string {
	r := *res
	r.Breakdown = nil
	r.Err = nil
	h := sha256.New()
	fmt.Fprintf(h, "%v\n%v", r, *res.Breakdown)
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
	v16, v32, h100 := memsim.V100_16G(), memsim.V100_32G(), memsim.H100_80G()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"alisa/b32-sparse-int8", goldenSim("opt-6.7b", v16, byName("alisa"), 32, 0.8, 8), "4e5b3fe1a4657a93"},
		{"alisa/b64-sparse-int8", goldenSim("opt-6.7b", v16, byName("alisa"), 64, 0.8, 8), "e5567541c7f38664"},
		{"alisa/b64-dense", goldenSim("opt-6.7b", v16, byName("alisa"), 64, 0, 16), "39f6ca2d7a23f514"},
		{"alisa/opt-30b-b64-phase3", goldenSim("opt-30b", h100, byName("alisa"), 64, 0.8, 8), "643bdd33e2443941"},
		{"vllm/b64-waves", goldenSim("opt-6.7b", v16, byName("vllm"), 64, 0, 16), "f3cf80e712549bf0"},
		{"flexgen/b64-partial", goldenSim("opt-6.7b", v16, byName("flexgen"), 64, 0, 16), "b2c196892ca2c5d6"},
		{"flexgen/b64-sparse-int8", goldenSim("opt-6.7b", v16, byName("flexgen"), 64, 0.8, 8), "c78dd6b77f5b3847"},
		{"flexgen/b8-h100", goldenSim("opt-6.7b", h100, byName("flexgen"), 8, 0, 16), "fdbb57e17792087b"},
		{"hf-accelerate/b16", goldenSim("opt-6.7b", v16, byName("hf-accelerate"), 16, 0, 16), "ab9d5822a0552bc1"},
		{"hf-accelerate/b16-sparse-int8", goldenSim("opt-6.7b", v16, byName("hf-accelerate"), 16, 0.8, 8), "2ed7874a30b0d1e5"},
		{"gpu-only/b4", goldenSim("opt-6.7b", v16, byName("gpu-only"), 4, 0, 16), "78c117ff00b67e61"},
		{"gpu-only/b8-oom", goldenSim("opt-6.7b", v16, byName("gpu-only"), 8, 0, 16), "1ee337d88cc76ab1"},
		{"gpu-only/b64-oom", goldenSim("opt-6.7b", v16, byName("gpu-only"), 64, 0, 16), "6f157aa8ae98d917"},
		{"deepspeed-zero/b4", goldenSim("opt-6.7b", v16, byName("deepspeed-zero"), 4, 0, 16), "5651f421d5000498"},
		{"deepspeed-zero/b64-oom", goldenSim("opt-6.7b", v16, byName("deepspeed-zero"), 64, 0, 16), "953563ad4707de02"},
		{"no-cache/b8", goldenSim("opt-6.7b", v16, byName("no-cache"), 8, 0, 16), "965559dd2fe4fe36"},
		{"pcie-split/0", goldenSim("opt-6.7b", v32, pcieSplit(0), 16, 0, 16), "8aa8b43b08b6da00"},
		{"pcie-split/0.5", goldenSim("opt-6.7b", v32, pcieSplit(0.5), 16, 0, 16), "9b341f50621d6814"},
		{"pcie-split/1", goldenSim("opt-6.7b", v32, pcieSplit(1), 16, 0, 16), "0b8307a9794bdffd"},
		{"pcie-split/0.5-oom", goldenSim("opt-6.7b", v16, pcieSplit(0.5), 64, 0, 16), "5bc271634ea70895"},
	}
	for _, c := range cases {
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
