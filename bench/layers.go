package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	alisa "repro"
	"repro/internal/attention"
	"repro/internal/costmodel"
	"repro/internal/gateway"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/sched"
	"repro/internal/serve/prefix"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A layer probe times one public function of one layer on fixed seeded
// inputs, the same in every workload's traced run, so a change to that
// layer shows in its probe whichever workload exercises it. Each probe
// reports the median over batches of calls.

// sink keeps probe results observable so the compiler cannot drop calls.
var sink float64

// perCall times fn over batches of n calls and returns one per-call
// sample per batch, multiplied by scale (1e9 for ns).
func perCall(batches, n int, scale float64, fn func()) []float64 {
	fn() // warm caches and scratch buffers
	out := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		out = append(out, time.Since(start).Seconds()/float64(n)*scale)
	}
	return out
}

// probeLayers runs every layer probe. Probes report wall time per call,
// timed around calls of nanoseconds to milliseconds, which the process's
// microsecond CPU clock cannot resolve.
func probeLayers(o opts) []metric {
	reps := 15
	if o.small {
		reps = 3
	}
	rng := rand.New(rand.NewSource(o.seed))
	out := probeTensor(rng, reps)
	// attention: SWA selection at 80% sparsity, driven by a calibrated
	// attention process; the second half of 1,024 steps is timed.
	out = append(out, sampled("attention.swa_select_ns", "ns", "lower", probeSWASelect(o.seed)))
	out = append(out, probeOracle(o.seed, reps)...)
	// model: one live decode step of the numeric experiment's small
	// decoder under SWA at 60% sparsity, past the first 48 tokens.
	out = append(out, sampled("model.decode_step_us", "us", "lower", probeDecodeStep(o.seed, reps)))
	out = append(out, probeSimulate(reps)...)
	// sched and costmodel at the serving mixture's median request shape.
	out = append(out, probeSched(o.seed, reps)...)
	out = append(out, probeCostModel(rng, reps))
	out = append(out, probePrefix(o.seed, reps)...)
	// serve, cluster and gateway: per-call wall time of one turn or one
	// request on small fixed inputs.
	out = append(out, probeServe(o.seed)...)
	return append(out, probeGateway(reps)...)
}

// probeTensor times top-k selection over a 2,048-position score row at
// 80% KV sparsity, and a decoder-sized 64×64 matrix product.
func probeTensor(rng *rand.Rand, reps int) []metric {
	scores := make([]float32, 2048)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	var topk tensor.TopKScratch
	var idx []int
	argtopk := sampled("tensor.argtopk_ns", "ns", "lower", perCall(reps, 50, 1e9, func() {
		idx = topk.ArgTopK(scores, 410, idx)
	}))
	a, b := tensor.New(64, 64), tensor.New(64, 64)
	for i := range a.Data {
		a.Data[i], b.Data[i] = rng.Float32(), rng.Float32()
	}
	matmul := sampled("tensor.matmul_ns", "ns", "lower", perCall(reps, 20, 1e9, func() {
		sink += float64(tensor.MatMul(a, b).Data[0])
	}))
	return []metric{argtopk, matmul}
}

// probeOracle times one accuracy evaluation of SWA at 80% sparsity on
// the fig8 specification of opt-6.7b, and counts its allocations.
func probeOracle(seed int64, reps int) []metric {
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), seed)
	spec.Layers = 4
	var evalMs, evalAllocs []float64
	for i := 0; i < max(reps/3, 2); i++ {
		pol := attention.MustByName("swa", 0.2, spec.Layers)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		sink += oracle.Evaluate(spec, pol, 256).MeanRecall
		evalMs = append(evalMs, time.Since(start).Seconds()*1e3)
		runtime.ReadMemStats(&m1)
		evalAllocs = append(evalAllocs, float64(m1.Mallocs-m0.Mallocs))
	}
	return []metric{sampled("oracle.evaluate_ms", "ms", "lower", evalMs[1:]),
		sampled("oracle.evaluate_allocs", "count", "lower", evalAllocs[1:])}
}

// probeSimulate times one lockstep simulation, opt-6.7b at batch 64
// under alisa.
func probeSimulate(reps int) []metric {
	eng, err := alisa.New("opt-6.7b", alisa.WithScheduler("alisa"), alisa.WithKVSparsity(0.8), alisa.WithKVBits(8))
	if err != nil {
		return nil
	}
	shape := workload.Alpaca(64)
	return []metric{sampled("core.simulate_ms", "ms", "lower", perCall(max(reps/3, 2), 1, 1e3, func() {
		res, err := eng.Simulate(context.Background(), alisa.Shape{Batch: shape.Batch, Input: shape.Input, Output: shape.Output})
		if err == nil {
			sink += res.Throughput
		}
	}))}
}

func probeSWASelect(seed int64) []float64 {
	const steps = 1024
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), seed)
	spec.Layers = 1
	proc := oracle.New(spec)
	pol := attention.MustByName("swa", 0.2, 1)
	var durs []float64
	for t := 0; t < steps; t++ {
		row := proc.Next()[0]
		start := time.Now()
		sel := pol.Select(0, t)
		if t >= steps/2 {
			durs = append(durs, time.Since(start).Seconds()*1e9)
		}
		indices, weights := oracle.MaskRow(row, sel)
		pol.Observe(0, indices, weights)
	}
	return batchMedians(durs, 16)
}

// batchMedians splits per-call samples into n batches and returns each
// batch's median, so the probe's spread is over batches as elsewhere.
func batchMedians(v []float64, n int) []float64 {
	size := max(len(v)/n, 1)
	var out []float64
	for i := 0; i+size <= len(v); i += size {
		s := append([]float64(nil), v[i:i+size]...)
		sort.Float64s(s)
		out = append(out, median(s))
	}
	return out
}

func probeDecodeStep(seed int64, reps int) []float64 {
	cfg := model.SmallConfig()
	dec := model.NewDecoder(cfg, seed)
	gen := workload.NewGenerator(cfg.Vocab, seed)
	var durs []float64
	for r := 0; r < max(reps/3, 2); r++ {
		st := dec.NewState()
		pol := attention.MustByName("swa", 0.4, cfg.Layers)
		for t := 0; t < 96; t++ {
			start := time.Now()
			res := dec.DecodeStep(st, gen.Next(), pol)
			if t >= 48 {
				durs = append(durs, time.Since(start).Seconds()*1e6)
			}
			sink += float64(res.Logits[0])
		}
	}
	return batchMedians(durs, reps)
}

// medianShape is the median prompt and output length of the serving
// mixture, estimated from seeded draws.
func medianShape(seed int64) (input, output int) {
	rng := rand.New(rand.NewSource(seed))
	ins, outs := make([]float64, 4096), make([]float64, 4096)
	for i := range ins {
		in, o := workload.SampleShape(rng)
		ins[i], outs[i] = float64(in), float64(o)
	}
	sort.Float64s(ins)
	sort.Float64s(outs)
	return int(median(ins)), int(median(outs))
}

// probeSched times the alisa scheduler on one request of the median
// shape, on a serve-scale replica's system (opt-6.7b on a 32 GB V100,
// weights and a 16-sequence activation reserve): factory plus Init
// (which runs the offline optimizer), and Step over the middle half of
// the decode.
func probeSched(seed int64, reps int) []metric {
	input, output := medianShape(seed)
	cfg := model.MustByName("opt-6.7b")
	prof, err := memsim.ProfileByName("V100-32GB")
	if err != nil {
		return nil
	}
	factory, err := sched.FactoryByName("alisa")
	if err != nil {
		return nil
	}
	sys := memsim.NewSystem(prof)
	for _, b := range []int64{prof.ReserveBytes, cfg.WeightBytes(2), cfg.ActivationBytes(16, 2)} {
		if sys.AllocGPU(b) != nil {
			return nil
		}
	}
	newCtx := func() *sched.Context {
		return &sched.Context{
			Sys: sys, Cost: costmodel.New(prof), Model: cfg,
			Batch: 1, Input: input, Output: output,
			CachingRatio: 0.2, KVBits: 8, Breakdown: trace.NewBreakdown(),
		}
	}
	var initUs, stepUs []float64
	for r := 0; r < reps*4; r++ {
		ctx := newCtx()
		start := time.Now()
		s := factory()
		if s.Init(ctx) != nil {
			return nil
		}
		initUs = append(initUs, time.Since(start).Seconds()*1e6)
		for j := 0; j < output; j++ {
			start := time.Now()
			plan, err := s.Step(ctx, j)
			if err != nil {
				return nil
			}
			if j >= output/4 && j < 3*output/4 {
				stepUs = append(stepUs, time.Since(start).Seconds()*1e6)
			}
			sink += float64(plan.Attended)
		}
		if rel, ok := s.(sched.Releaser); ok {
			rel.Release(ctx)
		}
	}
	return []metric{
		sampled("sched.alisa_init_us", "us", "lower", batchMedians(initUs[1:], reps)),
		sampled("sched.alisa_step_us", "us", "lower", batchMedians(stepUs, reps)),
	}
}

// probeCostModel times one fused ragged decode costing over 16 attended
// lengths at 80% sparsity.
func probeCostModel(rng *rand.Rand, reps int) metric {
	cfg := model.MustByName("opt-6.7b")
	prof, _ := memsim.ProfileByName("V100-32GB")
	cost := costmodel.New(prof)
	attended := make([]int, 16)
	for i := range attended {
		in, o := workload.SampleShape(rng)
		attended[i] = (in+rng.Intn(o))/5 + 1
	}
	return sampled("costmodel.ragged_decode_ns", "ns", "lower", perCall(reps, 2000, 1e9, func() {
		mha, ffn := cost.RaggedDecodeTime(cfg, attended, 1, true)
		sink += mha + ffn
	}))
}

// probePrefix times probing an index of the prefix-fleet workload's
// first 1,024 prompts with those prompts.
func probePrefix(seed int64, reps int) []metric {
	// The merged trace's first 1,024 requests arrive within its first
	// ~45 simulated seconds; generating 80 seconds of each source
	// reproduces them exactly, since both generators are sequential.
	tr, err := fleetTraceSized(seed, 192, 5, 960)
	if err != nil || len(tr) < 1024 {
		return nil
	}
	prompts := make([][]int, 1024)
	for i := range prompts {
		prompts[i] = tr[i].Tokens
	}
	x := prefix.NewIndex(fleetBlock, 1, 1<<62)
	for i, p := range prompts {
		x.Insert(p, 1<<62, float64(i))
	}
	i := 0
	return []metric{sampled("prefix.probe_ns", "ns", "lower", perCall(reps, 4096, 1e9, func() {
		sink += float64(x.Probe(prompts[i&1023]))
		i++
	}))}
}

// probeServe times Session.Advance on a 400-request scale-mode alisa
// stream and Cluster.Advance on a small prefix-affinity fleet.
func probeServe(seed int64) []metric {
	var out []metric
	eng, err := serveScaleEngine(alisa.WithExactMetrics(-1))
	if err != nil {
		return nil
	}
	tr, err := workload.NewPoissonTrace(400, serveScaleRate, seed)
	if err != nil {
		return nil
	}
	delayArrivals(tr)
	sess, err := eng.Open(context.Background())
	if err != nil {
		return nil
	}
	t := newTracer(time.Now(), 0, 1<<16)
	if _, err := feedSession(sess, tr, t, nil); err == nil {
		if lt := selfTimes(t)["serve.advance"]; lt != nil {
			out = append(out, sampled("serve.probe_advance_us", "us", "lower", scaleAll(batchMedians(lt.durs, 16), 1e6)))
		}
	}

	fleetEng, err := fleetEngine()
	if err != nil {
		return out
	}
	ftr, err := fleetTraceSized(seed, 24, 8, 192)
	if err != nil {
		return out
	}
	delayArrivals(ftr)
	fleet, err := fleetEng.OpenCluster(context.Background(), alisa.ClusterSpec{Replicas: 4, Router: fleetRouter})
	if err != nil {
		return out
	}
	t = newTracer(time.Now(), 0, 1<<16)
	if _, err := feedCluster(fleet, ftr, t, nil); err == nil {
		if lt := selfTimes(t)["cluster.advance"]; lt != nil {
			out = append(out, sampled("cluster.probe_advance_us", "us", "lower", scaleAll(batchMedians(lt.durs, 16), 1e6)))
		}
	}
	return out
}

// probeGateway times one streamed completion through the gateway's HTTP
// handler with an in-memory response recorder — decoding, the bridge,
// fan-out and SSE encoding without the network.
func probeGateway(reps int) []metric {
	eng, err := gatewayEngine()
	if err != nil {
		return nil
	}
	gw, err := gateway.New(gateway.Config{Engine: eng, TimeScale: 0})
	if err != nil {
		return nil
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := gw.Drain(ctx); err != nil {
			gw.Abort()
		}
	}()
	ok := true
	samples := perCall(reps, 16, 1e6, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/completions", bytes.NewReader(gatewayBody))
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.HasSuffix(rec.Body.Bytes(), []byte("data: [DONE]\n\n")) {
			ok = false
		}
	})
	if !ok {
		return nil
	}
	return []metric{sampled("gateway.probe_request_us", "us", "lower", samples)}
}

func scaleAll(v []float64, k float64) []float64 {
	for i := range v {
		v[i] *= k
	}
	return v
}
