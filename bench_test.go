package alisa

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (run `go test -bench=. -benchmem`), reporting the
// headline quantity of each artefact as a custom benchmark metric so
// regressions in the reproduced shapes show up in benchstat diffs.
//
// Table/figure → benchmark index (see DESIGN.md §3 for workloads):
//
//	Table I   BenchmarkTable1
//	Fig. 1    BenchmarkFig1_Breakdown         (slowdown_100cpu ×)
//	Fig. 2(c) BenchmarkFig2c_KVCaching        (uncached_over_cached ×)
//	Fig. 3    BenchmarkFig3_Sparsity          (sparsity_opt30b %)
//	Fig. 4    BenchmarkFig4_Spearman          (rho_swa)
//	Fig. 5    BenchmarkFig5_AttentionMaps
//	Fig. 8    BenchmarkFig8_Accuracy          (swa_ppl_regression_80 %)
//	Fig. 9    BenchmarkFig9_Throughput        (speedup_vs_flexgen ×)
//	Fig. 10   BenchmarkFig10_AttainableSparsity (attn_sparsity_80 %)
//	Fig. 11   BenchmarkFig11_AttnBreakdown    (sparse_over_dense_time)
//	Fig. 12a  BenchmarkFig12a_Phases          (alisa_over_flexgen ×)
//	Fig. 12b  BenchmarkFig12b_Recompute       (recompute_speedup ×)
//	Fig. 12c  BenchmarkFig12c_Ablation        (full_stack_gain ×)

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attention"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/quant"
	"repro/internal/sched"
	"repro/internal/tensor"
)

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_Breakdown(b *testing.B) {
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var base, full float64
	for _, row := range last.Rows {
		if row.Workload.Name != "w1" {
			continue
		}
		switch row.Placement {
		case "GPU only":
			base = row.TotalSeconds
		case "100% CPU":
			full = row.TotalSeconds
		}
	}
	b.ReportMetric(full/base, "slowdown_100cpu")
}

func BenchmarkFig2c_KVCaching(b *testing.B) {
	var last *experiments.Fig2cResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2c()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	end := last.Points[len(last.Points)-1]
	b.ReportMetric(end.UncachedSeconds/end.CachedSeconds, "uncached_over_cached")
}

func BenchmarkFig3_Sparsity(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Series[2].MeanSparsity*100, "sparsity_opt30b_%")
}

func BenchmarkFig4_Spearman(b *testing.B) {
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, s := range last.Series {
		if s.Policy == "swa" {
			b.ReportMetric(s.Spearman, "rho_swa")
		}
	}
}

func BenchmarkFig5_AttentionMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Accuracy(b *testing.B) {
	cfg := experiments.DefaultFig8Config()
	var last *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	dense, _ := last.Cell("opt-6.7b", "wikitext-2", "dense", 0.8)
	swa, _ := last.Cell("opt-6.7b", "wikitext-2", "swa", 0.8)
	b.ReportMetric((swa.Metric/dense.Metric-1)*100, "swa_ppl_regression_80_%")
}

func BenchmarkFig9_Throughput(b *testing.B) {
	cfg := experiments.DefaultFig9Config()
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Speedup("opt-6.7b", 64, "flexgen"), "speedup_vs_flexgen")
	b.ReportMetric(last.Speedup("opt-6.7b", 64, "vllm"), "speedup_vs_vllm")
}

func BenchmarkFig10_AttainableSparsity(b *testing.B) {
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, p := range last.Points {
		if p.Model == "opt-6.7b" && p.KVSparsity == 0.8 {
			b.ReportMetric(p.AttentionSparsity*100, "attn_sparsity_80_%")
		}
	}
}

func BenchmarkFig11_AttnBreakdown(b *testing.B) {
	var last *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var dense, sparse float64
	for _, row := range last.Rows {
		if row.Model != "opt-6.7b" {
			continue
		}
		switch row.KVSparsity {
		case 0:
			dense = row.Breakdown.Total()
		case 0.8:
			sparse = row.Breakdown.Total()
		}
	}
	b.ReportMetric(sparse/dense, "sparse_over_dense_time")
}

func BenchmarkFig12a_Phases(b *testing.B) {
	var last *experiments.Fig12aResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12a()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var flexgen, alisa80 float64
	for _, row := range last.Rows {
		if row.System == "flexgen" {
			flexgen = row.Total
		}
		if row.System == "alisa" && row.KVSparsity == 0.8 {
			alisa80 = row.Total
		}
	}
	b.ReportMetric(flexgen/alisa80, "alisa_over_flexgen")
}

func BenchmarkFig12b_Recompute(b *testing.B) {
	var last *experiments.Fig12bResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12b()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].Speedup, "recompute_speedup")
}

func BenchmarkFig12c_Ablation(b *testing.B) {
	var last *experiments.Fig12cResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12c()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	var fg, full float64
	for _, row := range last.Rows {
		if row.KVSparsity == 0.8 {
			switch row.Variant {
			case "flexgen":
				fg = row.Throughput
			case "+int8":
				full = row.Throughput
			}
		}
	}
	b.ReportMetric(full/fg, "full_stack_gain")
}

// --- micro-benchmarks of the core building blocks ---

func BenchmarkSWASelect(b *testing.B) {
	pol := attention.MustByName("swa", 0.2, 1)
	rng := rand.New(rand.NewSource(1))
	// Warm the policy with observation history.
	for step := 1; step < 512; step++ {
		sel := pol.Select(0, step)
		w := make([]float64, len(sel)+1)
		for i := range w {
			w[i] = rng.Float64()
		}
		pol.Observe(0, append(sel, step), w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Select(0, 512)
	}
}

func BenchmarkDecoderStep(b *testing.B) {
	d := model.NewDecoder(model.SmallConfig(), 1)
	st := d.NewState()
	for i := 0; i < 64; i++ {
		d.DecodeStep(st, i%d.Cfg.Vocab, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-use a fresh state periodically to bound cache growth.
		if st.Len >= d.Cfg.MaxSeq-1 {
			st = d.NewState()
		}
		d.DecodeStep(st, i%d.Cfg.Vocab, nil)
	}
}

func BenchmarkQuantizeINT8(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := tensor.New(256, 64)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(int64(len(m.Data)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.Quantize(m, 8)
	}
}

func BenchmarkMatMulT(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q := tensor.New(1, 256)
	k := tensor.New(512, 256)
	for i := range q.Data {
		q.Data[i] = float32(rng.NormFloat64())
	}
	for i := range k.Data {
		k.Data[i] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulT(q, k)
	}
}

// BenchmarkOracleEvaluate measures the parallel scratch-reusing accuracy
// hot path; BenchmarkOracleEvaluateSequential measures the retained
// per-step-allocating reference. Comparing their allocs/op (each op is
// evalSteps decode steps over evalLayers layers) shows the allocation
// reduction the hot path buys — the reference allocates several slices
// per step per layer, the hot path a constant amount per run.
const (
	evalSteps  = 192
	evalLayers = 4
)

func BenchmarkOracleEvaluate(b *testing.B) {
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), 1)
	spec.Layers = evalLayers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oracle.Evaluate(spec, attention.MustByName("swa", 0.2, spec.Layers), evalSteps)
	}
}

func BenchmarkOracleEvaluateSequential(b *testing.B) {
	spec := oracle.SpecForModel(model.MustByName("opt-6.7b"), 1)
	spec.Layers = evalLayers
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oracle.EvaluateSequential(spec, attention.MustByName("swa", 0.2, spec.Layers), evalSteps)
	}
}

func BenchmarkOracleStep(b *testing.B) {
	proc := oracle.New(oracle.DefaultSpec(4, 1))
	for i := 0; i < 256; i++ {
		proc.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if proc.Step() > 2000 {
			b.StopTimer()
			proc = oracle.New(oracle.DefaultSpec(4, 1))
			for j := 0; j < 256; j++ {
				proc.Next()
			}
			b.StartTimer()
		}
		proc.Next()
	}
}

func BenchmarkEngineDecodeStep(b *testing.B) {
	// One full ALISA simulation per iteration at a reduced output length,
	// normalised per decode step via the reported metric.
	cfg := core.Config{
		Model:   model.MustByName("opt-6.7b"),
		Profile: memsim.V100_16G(),
		Batch:   64, Input: 128, Output: 64,
		KVSparsity: 0.8, KVBits: 8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Scheduler = sched.MustByName("alisa")
		if _, err := core.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving sweep benchmarks ---

// sweepBenchEngines compiles the sweep benchmark's engines and traces
// once; the benchmarks reuse them across iterations so only cell
// execution is timed.
func sweepBenchEngines(b *testing.B) ([]*Engine, []TraceWorkload) {
	b.Helper()
	var engines []*Engine
	for _, name := range []string{"alisa", "vllm"} {
		opts := []Option{WithScheduler(name)}
		if name == "alisa" {
			opts = append(opts, WithKVSparsity(0.8), WithKVBits(8))
		}
		eng, err := New("opt-6.7b", opts...)
		if err != nil {
			b.Fatal(err)
		}
		engines = append(engines, eng)
	}
	var traces []TraceWorkload
	for _, rate := range []float64{1, 2, 4, 8} {
		traces = append(traces, PoissonTrace(16, rate, 1))
	}
	return engines, traces
}

// BenchmarkSweepSerial runs a (scheduler × offered load) sweep one cell
// at a time — the pre-ServeMany execution model.
func BenchmarkSweepSerial(b *testing.B) {
	engines, traces := sweepBenchEngines(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eng := range engines {
			for _, tr := range traces {
				if _, err := eng.Serve(ctx, tr); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkSweepParallel runs the same sweep through Engine.ServeMany,
// which executes the rate cells concurrently on GOMAXPROCS workers.
func BenchmarkSweepParallel(b *testing.B) {
	engines, traces := sweepBenchEngines(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eng := range engines {
			if _, err := eng.ServeMany(ctx, traces); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSessionSteadyState measures one full streaming-session cycle
// — Open, push the pressured 20-request replay workload, drain, Close —
// the session-path counterpart of internal/serve's BenchmarkServe. The
// allocs/op delta against that benchmark is the price of the public
// streaming surface (the window, the tap, incremental record arenas);
// TestSessionSteadyStateAllocs guards it against regressing.
func BenchmarkSessionSteadyState(b *testing.B) {
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8), WithMaxBatch(8))
	if err != nil {
		b.Fatal(err)
	}
	trace := PoissonTrace(20, 3.0, 42)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := eng.Open(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range trace {
			if err := s.Push(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedLoop measures one closed-loop run — 8 clients, 32
// requests — through the Session-based driver, the unit of the
// latency-vs-concurrency table.
func BenchmarkClosedLoop(b *testing.B) {
	eng, err := New("opt-6.7b", WithKVSparsity(0.8), WithKVBits(8))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	cl := ClosedLoop{Clients: 8, Requests: 32, ThinkTime: 0.25, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ServeClosedLoop(ctx, cl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizer(b *testing.B) {
	mc := model.MustByName("opt-13b")
	prof := memsim.V100_32G()
	for i := 0; i < b.N; i++ {
		ctx := &sched.Context{
			Sys: memsim.NewSystem(prof), Cost: costmodel.New(prof), Model: mc,
			Batch: 64, Input: 128, Output: 512,
			CachingRatio: 0.2, KVBits: 8,
		}
		// Optimizer runs inside Init; isolate it through a direct call on
		// the GPU budget the engine leaves it.
		if err := ctx.ReserveStatic(false); err != nil {
			b.Fatal(err)
		}
		sched.Optimize(ctx)
	}
}
