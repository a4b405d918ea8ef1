package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/attention"
)

func TestCatalogShapes(t *testing.T) {
	cases := []struct {
		name          string
		layers, heads int
		hidden        int
	}{
		{"opt-6.7b", 32, 32, 4096},
		{"opt-13b", 40, 40, 5120},
		{"opt-30b", 48, 56, 7168},
		{"llama-7b", 32, 32, 4096},
		{"llama-13b", 40, 40, 5120},
		{"llama-33b", 60, 52, 6656},
		{"pythia-6.9b", 32, 32, 4096},
		{"pythia-12b", 36, 40, 5120},
	}
	for _, c := range cases {
		cfg, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Layers != c.layers || cfg.Heads != c.heads || cfg.Hidden != c.hidden {
			t.Errorf("%s: got (l=%d,h=%d,heads=%d)", c.name, cfg.Layers, cfg.Hidden, cfg.Heads)
		}
		if cfg.Hidden%cfg.Heads != 0 {
			t.Errorf("%s: hidden %d not divisible by heads %d", c.name, cfg.Hidden, cfg.Heads)
		}
		for _, spelling := range []string{strings.ToUpper(c.name), strings.ToLower(c.name)} {
			if other, err := ByName(spelling); err != nil || other != cfg {
				t.Errorf("ByName(%q) = %+v, %v; want %+v", spelling, other, err, cfg)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("gpt-5"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestParamCountsMatchPublishedScale(t *testing.T) {
	// Parameter counts should land within 10% of the published sizes.
	cases := map[string]float64{
		"opt-6.7b":  6.7e9,
		"opt-13b":   13e9,
		"opt-30b":   30e9,
		"llama-7b":  6.7e9,
		"llama-13b": 13e9,
		"llama-33b": 32.5e9,
	}
	for name, want := range cases {
		cfg := MustByName(name)
		got := float64(cfg.Params())
		if ratio := got / want; ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: params %.2fB vs published %.1fB (ratio %.2f)", name, got/1e9, want/1e9, ratio)
		}
	}
}

func TestKVBytesMatchPaperExample(t *testing.T) {
	// Paper §III-A: OPT-13B, seq 512, batch 64, FP16 ⇒ "more than 25 GB"
	// of KV, larger than the ~23 GB weights... weights at FP16.
	cfg := MustByName("opt-13b")
	kv := 64 * 512 * cfg.KVBytesPerToken(2)
	if kvGB := float64(kv) / (1 << 30); kvGB < 24 || kvGB > 27 {
		t.Fatalf("OPT-13B KV at (64,512) = %.1f GB, paper says >25 GB", kvGB)
	}
	w := cfg.WeightBytes(2)
	if wGB := float64(w) / (1 << 30); wGB < 21 || wGB > 26 {
		t.Fatalf("OPT-13B FP16 weights = %.1f GB, paper says ≈23 GB", wGB)
	}
	if kv <= w { // KV should exceed weights at this workload, per the paper
		t.Fatalf("KV (%d) should exceed weights (%d)", kv, w)
	}
}

func TestKVBytesPerTokenFormula(t *testing.T) {
	cfg := MustByName("opt-6.7b")
	// FP16: 4·l·h bytes per token (2 tensors × 2 bytes).
	want := int64(4 * cfg.Layers * cfg.Hidden)
	if got := cfg.KVBytesPerToken(2); got != want {
		t.Fatalf("KVBytesPerToken = %d, want %d", got, want)
	}
}

// The central correctness invariant: decoding step-by-step with a KV cache
// reproduces the uncached full forward pass exactly (up to accumulation
// noise). This is what "KV caching substitutes computation with memory"
// means in Fig. 2(b).
func TestKVCacheEquivalence(t *testing.T) {
	d := NewDecoder(SmallConfig(), 42)
	rng := rand.New(rand.NewSource(7))
	tokens := make([]int, 12)
	for i := range tokens {
		tokens[i] = rng.Intn(d.Cfg.Vocab)
	}

	st := d.NewState()
	var cached []float32
	for _, tok := range tokens {
		cached = d.DecodeStep(st, tok, nil).Logits
	}
	full := d.ForwardFull(tokens)

	if len(cached) != len(full) {
		t.Fatalf("logit length mismatch %d vs %d", len(cached), len(full))
	}
	for i := range cached {
		if math.Abs(float64(cached[i]-full[i])) > 1e-3 {
			t.Fatalf("logit %d: cached %v vs full %v", i, cached[i], full[i])
		}
	}
}

func TestAttentionWeightsAreCausalDistribution(t *testing.T) {
	d := NewDecoder(SmallConfig(), 1)
	st := d.NewState()
	for step := 0; step < 8; step++ {
		res := d.DecodeStep(st, step%d.Cfg.Vocab, nil)
		for l, w := range res.AttnWeights {
			if len(w) != step+1 {
				t.Fatalf("step %d layer %d: %d weights, want %d", step, l, len(w), step+1)
			}
			var sum float64
			for _, x := range w {
				if x < 0 {
					t.Fatalf("negative attention weight %v", x)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-4 {
				t.Fatalf("step %d layer %d: weights sum to %v", step, l, sum)
			}
			idx := res.AttnIndices[l]
			if idx[len(idx)-1] != step {
				t.Fatalf("current token index should be %d, got %d", step, idx[len(idx)-1])
			}
		}
	}
}

func TestDeterministicWeights(t *testing.T) {
	a := NewDecoder(SmallConfig(), 5)
	b := NewDecoder(SmallConfig(), 5)
	if !a.Blocks[0].Wq.Equal(b.Blocks[0].Wq, 0) {
		t.Fatal("same seed should produce identical weights")
	}
	c := NewDecoder(SmallConfig(), 6)
	if a.Blocks[0].Wq.Equal(c.Blocks[0].Wq, 0) {
		t.Fatal("different seeds should produce different weights")
	}
}

func TestStateGrowth(t *testing.T) {
	d := NewDecoder(SmallConfig(), 2)
	st := d.NewState()
	for i := 0; i < 5; i++ {
		d.DecodeStep(st, i, nil)
	}
	if st.Len != 5 {
		t.Fatalf("state len = %d, want 5", st.Len)
	}
	for l := range st.K {
		if st.K[l].Rows != 5 || st.V[l].Rows != 5 {
			t.Fatalf("layer %d cache rows K=%d V=%d, want 5", l, st.K[l].Rows, st.V[l].Rows)
		}
	}
}

func TestDecodeStepPanicsOnBadToken(t *testing.T) {
	d := NewDecoder(SmallConfig(), 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-vocab token")
		}
	}()
	d.DecodeStep(d.NewState(), d.Cfg.Vocab+1, nil)
}

// TestDecodeStepAllocsZero holds a warmed decode step to zero allocations,
// dense and under SWA: the step works in the State's scratch and appends
// K/V into the cache's reserved capacity. The SWA instance first decodes
// a longer sequence, so its own buffers already fit the measured one.
func TestDecodeStepAllocsZero(t *testing.T) {
	d := NewDecoder(SmallConfig(), 13)
	swa := attention.MustByName("swa", 0.4, d.Cfg.Layers)
	for _, tc := range []struct {
		name string
		sel  Selector
	}{{"dense", nil}, {"swa", swa}} {
		if tc.sel != nil {
			st := d.NewState()
			for i := 0; i < 160; i++ {
				d.DecodeStep(st, i%d.Cfg.Vocab, tc.sel)
			}
		}
		st := d.NewState()
		tok := 0
		step := func() {
			d.DecodeStep(st, tok%d.Cfg.Vocab, tc.sel)
			tok++
		}
		for tok < 48 {
			step()
		}
		if allocs := testing.AllocsPerRun(64, step); allocs != 0 {
			t.Errorf("%s: a warmed decode step allocates %v times, want 0", tc.name, allocs)
		}
	}
}

// restrictor is a Selector that limits attention to the most recent w
// cached tokens — used to verify the selector plumbing end to end.
type restrictor struct {
	w        int
	observed int
}

func (r *restrictor) Select(_, n int) []int {
	start := n - r.w
	if start < 0 {
		start = 0
	}
	idx := make([]int, 0, n-start)
	for i := start; i < n; i++ {
		idx = append(idx, i)
	}
	return idx
}

func (r *restrictor) Observe(_ int, indices []int, weights []float64) {
	r.observed++
	if len(indices) != len(weights) {
		panic("observe length mismatch")
	}
}

func TestSelectorRestrictsAttention(t *testing.T) {
	d := NewDecoder(SmallConfig(), 4)
	sel := &restrictor{w: 2}
	st := d.NewState()
	var res *StepResult
	for i := 0; i < 6; i++ {
		res = d.DecodeStep(st, i, sel)
	}
	// At step 5 the policy allows cache indices {3,4} plus self = 3 positions.
	for l := range res.AttnWeights {
		if len(res.AttnWeights[l]) != 3 {
			t.Fatalf("layer %d attended %d positions, want 3", l, len(res.AttnWeights[l]))
		}
	}
	if sel.observed != 6*d.Cfg.Layers {
		t.Fatalf("observe called %d times, want %d", sel.observed, 6*d.Cfg.Layers)
	}
}

// Property: the KV-cached decode path is deterministic — identical token
// streams produce identical logits.
func TestDecodeDeterministicProperty(t *testing.T) {
	d := NewDecoder(SmallConfig(), 11)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		tokens := make([]int, n)
		for i := range tokens {
			tokens[i] = rng.Intn(d.Cfg.Vocab)
		}
		run := func() []float32 {
			st := d.NewState()
			var out []float32
			for _, tok := range tokens {
				out = d.DecodeStep(st, tok, nil).Logits
			}
			return out
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
