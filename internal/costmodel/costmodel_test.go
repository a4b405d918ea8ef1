package costmodel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
)

func TestGEMMRooflineRegimes(t *testing.T) {
	c := New(memsim.V100_16G())
	// A large square GEMM is compute-bound: time ≈ flops / attainable.
	big := c.GEMM(4096, 4096, 4096, 2)
	attain := c.Prof.PeakFLOPS * c.Prof.GEMMUtil
	computeTime := float64(big.FLOPs) / attain
	if big.Seconds < computeTime*0.99 {
		t.Fatalf("big GEMM faster than compute bound: %v < %v", big.Seconds, computeTime)
	}
	// A skinny GEMM (batch-1 decode) is memory-bound: time ≈ bytes / bw
	// plus launch latency.
	skinny := c.GEMM(1, 4096, 4096, 2)
	memTime := float64(skinny.Bytes) / c.Prof.HBMBandwidth
	if skinny.Seconds < memTime || skinny.Seconds > memTime+10e-6 {
		t.Fatalf("skinny GEMM should be memory-bound: %v vs %v", skinny.Seconds, memTime)
	}
}

func TestSmallGEMMUnderUtilisation(t *testing.T) {
	// Fig. 11's FLOPS drop: shrinking the output tensor must shrink
	// effective FLOPS once below the saturation size.
	c := New(memsim.H100_80G())
	large := c.GEMM(64, 7168, 128, 2)
	small := c.GEMM(64, 7168, 16, 2)
	if small.EffFLOPS() >= large.EffFLOPS() {
		t.Fatalf("small GEMM FLOPS %.3e should drop below large %.3e",
			small.EffFLOPS(), large.EffFLOPS())
	}
	// But execution time must not *increase* when work shrinks.
	if small.Seconds > large.Seconds {
		t.Fatalf("smaller GEMM slower: %v > %v", small.Seconds, large.Seconds)
	}
}

func TestAttentionSparsityReducesTime(t *testing.T) {
	// Fig. 11: higher KV sparsity always reduces SWA module time.
	c := New(memsim.V100_32G())
	mk := func(attended int) float64 {
		return c.Attention(AttnConfig{
			Batch: 64, Hidden: 4096, Heads: 32,
			Attended: attended, BytesKV: 2, LocalWindow: attended / 2,
		}).Total()
	}
	dense := mk(128)
	sp40 := mk(77) // 40 % sparsity of 128
	sp80 := mk(26)
	if !(dense > sp40 && sp40 > sp80) {
		t.Fatalf("attention time should fall with sparsity: %v, %v, %v", dense, sp40, sp80)
	}
}

func TestSWAOverheadVisible(t *testing.T) {
	// SWA introduces local-sum and gather overhead vs. dense attention at
	// the same attended size (the "execution overhead" in Fig. 11).
	c := New(memsim.V100_32G())
	cfg := AttnConfig{Batch: 64, Hidden: 4096, Heads: 32, Attended: 64, BytesKV: 2}
	dense := c.Attention(cfg)
	cfg.LocalWindow = 32
	swa := c.Attention(cfg)
	if swa.Total() <= dense.Total() {
		t.Fatalf("SWA should carry overhead: %v vs %v", swa.Total(), dense.Total())
	}
	if swa.LocalSum.Seconds == 0 || swa.Gather.Seconds == 0 {
		t.Fatal("SWA overhead components missing")
	}
	if dense.LocalSum.Seconds != 0 || dense.Gather.Seconds != 0 {
		t.Fatal("dense attention must not pay SWA overhead")
	}
}

func TestLargerModelHigherOverhead(t *testing.T) {
	// Fig. 11: larger LLMs incur higher local-sum and gather overheads.
	c := New(memsim.H100_80G())
	small := c.Attention(AttnConfig{Batch: 64, Hidden: 4096, Heads: 32, Attended: 64, BytesKV: 2, LocalWindow: 32})
	large := c.Attention(AttnConfig{Batch: 64, Hidden: 7168, Heads: 56, Attended: 64, BytesKV: 2, LocalWindow: 32})
	if large.LocalSum.Seconds+large.Gather.Seconds <= small.LocalSum.Seconds+small.Gather.Seconds {
		t.Fatal("larger model should pay more SWA overhead")
	}
}

func TestFFNGatedCostsMore(t *testing.T) {
	c := New(memsim.V100_16G())
	plain := c.FFNTime(8, 4096, 11008, false)
	gated := c.FFNTime(8, 4096, 11008, true)
	if gated.Seconds <= plain.Seconds {
		t.Fatal("gated FFN should cost 3/2 of plain")
	}
}

func TestPrefillScalesAtLeastLinearly(t *testing.T) {
	// At moderate lengths prefill is dominated by the linear GEMM terms;
	// the quadratic attention share grows with s, so doubling s must at
	// least double time and the per-token cost must not fall.
	c := New(memsim.V100_32G())
	cfg := model.MustByName("opt-6.7b")
	t256 := c.PrefillTime(cfg, 8, 256)
	t512 := c.PrefillTime(cfg, 8, 512)
	t2048 := c.PrefillTime(cfg, 8, 2048)
	if t512 < 1.95*t256 {
		t.Fatalf("prefill sublinear: %v vs %v", t256, t512)
	}
	// Quadratic share visible at long sequences: 8× tokens, strictly more
	// than 8× time (projections are linear; attention adds the excess).
	if t2048 <= 8.02*t256 {
		t.Fatalf("prefill quadratic share missing: t2048=%v t256=%v", t2048, t256)
	}
}

func TestRecomputeTimeProperties(t *testing.T) {
	c := New(memsim.H100_80G())
	cfg := model.MustByName("opt-30b")
	if c.RecomputeTime(&cfg, 64, 0) != 0 {
		t.Fatal("zero tokens should cost zero")
	}
	r10 := c.RecomputeTime(&cfg, 64, 10)
	r20 := c.RecomputeTime(&cfg, 64, 20)
	if r20 <= r10 {
		t.Fatal("recompute time should grow with token count")
	}
	// The central Phase III trade-off: recomputing a token must be cheaper
	// than fetching it over PCIe once compute is fast enough — otherwise
	// recomputation could never win (paper Fig. 12(b)).
	kvBytes := cfg.KVBytesPerToken(2) * 64 * 10
	fetch := float64(kvBytes) / c.Prof.PCIeBandwidth
	if r10 >= fetch {
		t.Fatalf("recompute (%v) should beat PCIe fetch (%v) on H100", r10, fetch)
	}
}

func TestQuantizePassCheaperThanTransferSavings(t *testing.T) {
	// Compressing KV to INT8 must cost less than the transfer time it
	// saves at PCIe speeds, or the paper's KV compression would not help.
	c := New(memsim.V100_32G())
	bytes := int64(1) << 30
	q := c.Quantize(bytes)
	saved := float64(bytes/2) / c.Prof.PCIeBandwidth
	if q.Seconds >= saved {
		t.Fatalf("quantization %v not worth the saved transfer %v", q.Seconds, saved)
	}
}

func TestDecodeLayerTimeShape(t *testing.T) {
	c := New(memsim.V100_32G())
	cfg := model.MustByName("opt-6.7b")
	// At large batch the per-sequence KV traffic dominates, so attending
	// 5× fewer tokens wins despite SWA's gather/local-sum/bookkeeping
	// overheads.
	mhaDense, ffn := c.DecodeLayerTime(&cfg, 64, 640, 2, false)
	mhaSparse, ffn2 := c.DecodeLayerTime(&cfg, 64, 128, 2, true)
	if ffn != ffn2 {
		t.Fatal("FFN time must not depend on attention sparsity")
	}
	if mhaSparse >= mhaDense {
		t.Fatalf("sparse MHA (%v) should beat dense (%v) at 5× fewer tokens", mhaSparse, mhaDense)
	}
	// At the SAME attended size the sparse path must cost more — the SWA
	// overhead of Fig. 11.
	mhaDenseSame, _ := c.DecodeLayerTime(&cfg, 64, 128, 2, false)
	if mhaSparse <= mhaDenseSame {
		t.Fatalf("SWA at equal attended size should carry overhead: %v vs %v", mhaSparse, mhaDenseSame)
	}
}

func TestSampleEffFLOPSZeroSafe(t *testing.T) {
	if (Sample{}).EffFLOPS() != 0 {
		t.Fatal("zero sample should report zero FLOPS")
	}
}

func TestRaggedDecodeTimeSingleMatchesLockstep(t *testing.T) {
	c := New(memsim.V100_16G())
	cfg := model.MustByName("opt-6.7b")
	for _, swa := range []bool{false, true} {
		for _, sel := range []int{1, 17, 300} {
			mhaLock, ffnLock := c.DecodeLayerTime(&cfg, 1, sel, 2, swa)
			layers := float64(cfg.Layers)
			mha, ffn := c.RaggedDecodeTime(cfg, []int{sel}, 2, swa)
			if math.Abs(mha-mhaLock*layers) > mha*1e-12 || math.Abs(ffn-ffnLock*layers) > ffn*1e-12 {
				t.Errorf("swa=%v sel=%d: ragged single (%.12g, %.12g) != lockstep batch-1 (%.12g, %.12g)",
					swa, sel, mha, ffn, mhaLock*layers, ffnLock*layers)
			}
		}
	}
}

// TestAttnSecondsMatchesAttentionTotal pins the decode-time helper to
// its reference bit for bit: every term, the term order, and the SWA
// switch. At one attended token the window sel/2 is 0, which must turn
// the SWA terms off on a sparse step just as LocalWindow 0 does.
func TestAttnSecondsMatchesAttentionTotal(t *testing.T) {
	for _, prof := range []memsim.Profile{memsim.V100_16G(), memsim.V100_32G(), memsim.H100_80G()} {
		c := New(prof)
		for _, name := range model.Names() {
			cfg := model.MustByName(name)
			for _, batch := range []int{1, 2, 7, 64} {
				for _, sel := range []int{1, 2, 3, 17, 300, 2049} {
					for _, kvb := range []int{1, 2} {
						for _, window := range []int{0, sel / 2} {
							ref := c.Attention(AttnConfig{
								Batch: batch, Hidden: cfg.Hidden, Heads: cfg.Heads,
								Attended: sel, BytesKV: kvb, LocalWindow: window,
							})
							got := c.attnSeconds(ref.QProj.Seconds, int64(batch), int64(cfg.Hidden), int64(cfg.Heads),
								int64(sel), kvb, int64(window))
							if want := ref.Total(); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s %s b=%d sel=%d kv=%d window=%d: attnSeconds %v, Attention total %v",
									prof.Name, name, batch, sel, kvb, window, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestRaggedDecodeTimeProperties(t *testing.T) {
	c := New(memsim.V100_16G())
	cfg := model.MustByName("opt-6.7b")
	if m, f := c.RaggedDecodeTime(cfg, nil, 2, false); m != 0 || f != 0 {
		t.Errorf("empty batch costs (%v, %v)", m, f)
	}
	total := func(attended []int) float64 {
		m, f := c.RaggedDecodeTime(cfg, attended, 2, true)
		if m <= 0 || f <= 0 {
			t.Fatalf("non-positive charge (%v, %v) for %v", m, f, attended)
		}
		return m + f
	}
	// Fusing beats running the sequences as separate batch-1 iterations.
	attended := []int{64, 512, 129, 1000}
	fused := total(attended)
	var separate float64
	for _, sel := range attended {
		separate += total([]int{sel})
	}
	if fused >= separate {
		t.Errorf("fused iteration %.6g not cheaper than separate %.6g", fused, separate)
	}
	// Monotone in any sequence's attended count.
	if more := total([]int{64, 512, 400, 1000}); more <= fused {
		t.Errorf("more attended tokens not more expensive: %.6g <= %.6g", more, fused)
	}
}

// TestDecodePricesMatchRaggedDecodeTime holds the price table to its
// definition bit for bit on every profile, model, KV width and SWA flag:
// batches of 1 to 16 whose first sequence is the longest, so the table
// grows past counts it has not priced yet, then repeats and shorter
// counts read what earlier batches filled in. A clone taken halfway
// prices the rest of the batches as the original does.
func TestDecodePricesMatchRaggedDecodeTime(t *testing.T) {
	batches := make([][]int, 16)
	for b := range batches {
		attended := []int{2000 - 61*b}
		for i := 1; i <= b; i++ {
			attended = append(attended, 1+(i*397+b*113)%700)
		}
		batches[b] = attended
	}
	check := func(t *testing.T, p *DecodePrices, c *Cost, cfg model.Config, kvb int, swa bool, attended []int) {
		t.Helper()
		mha, ffn := p.Time(attended, swa)
		wantMHA, wantFFN := c.RaggedDecodeTime(cfg, attended, kvb, swa)
		if math.Float64bits(mha) != math.Float64bits(wantMHA) || math.Float64bits(ffn) != math.Float64bits(wantFFN) {
			t.Fatalf("kv=%d swa=%v %v: table (%v, %v), RaggedDecodeTime (%v, %v)",
				kvb, swa, attended, mha, ffn, wantMHA, wantFFN)
		}
	}
	for _, profName := range memsim.ProfileNames() {
		prof, err := memsim.ProfileByName(profName)
		if err != nil {
			t.Fatal(err)
		}
		c := New(prof)
		for _, name := range model.Names() {
			cfg := model.MustByName(name)
			for _, kvb := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/kv%d", profName, name, kvb), func(t *testing.T) {
					p := NewDecodePrices(c, cfg, kvb)
					var fork DecodePrices
					for i, attended := range batches {
						if i == len(batches)/2 {
							fork = p.Clone()
						}
						for _, swa := range []bool{true, false} {
							check(t, &p, &c, cfg, kvb, swa, attended)
						}
					}
					for _, attended := range batches[len(batches)/2:] {
						for _, swa := range []bool{true, false} {
							check(t, &fork, &c, cfg, kvb, swa, attended)
						}
					}
				})
			}
		}
	}
}
