package oracle

import (
	"math"
	"testing"

	"repro/internal/attention"
	"repro/internal/metrics"
	"repro/internal/model"
)

func TestRowsAreCausalDistributions(t *testing.T) {
	p := New(DefaultSpec(3, 1))
	for step := 0; step < 20; step++ {
		rows := p.Next()
		if len(rows) != 3 {
			t.Fatalf("step %d: %d rows, want 3", step, len(rows))
		}
		for l, row := range rows {
			if len(row) != step+1 {
				t.Fatalf("step %d layer %d: row length %d, want %d", step, l, len(row), step+1)
			}
			var sum float64
			for _, w := range row {
				if w < 0 {
					t.Fatalf("negative weight %v", w)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row sums to %v", sum)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(DefaultSpec(2, 7))
	b := New(DefaultSpec(2, 7))
	for step := 0; step < 10; step++ {
		ra, rb := a.Next(), b.Next()
		for l := range ra {
			for i := range ra[l] {
				if ra[l][i] != rb[l][i] {
					t.Fatalf("seeded process diverged at step %d", step)
				}
			}
		}
	}
	c := New(DefaultSpec(2, 8))
	c.Next()
	c.Next()
	r2 := c.Next()
	a2 := New(DefaultSpec(2, 7))
	a2.Next()
	a2.Next()
	ra2 := a2.Next()
	same := true
	for i := range r2[0] {
		if r2[0][i] != ra2[0][i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical rows")
	}
}

func TestSparsityInPaperRange(t *testing.T) {
	// Fig. 3: sparsity between ~80 % and ~95 % across steps for OPT-scale
	// models once sequences are long enough.
	spec := SpecForModel(model.MustByName("opt-6.7b"), 3)
	p := New(spec)
	var sum float64
	var n int
	for step := 0; step < 256; step++ {
		rows := p.Next()
		if step < 64 {
			continue // sparsity is ill-defined for very short rows
		}
		for _, row := range rows {
			sum += metrics.Sparsity(row, 0.01)
			n++
		}
	}
	avg := sum / float64(n)
	if avg < 0.75 || avg > 0.97 {
		t.Fatalf("OPT-6.7B-calibrated sparsity = %.3f, want ≈0.80–0.95", avg)
	}
}

func TestLargerModelsSparser(t *testing.T) {
	// Fig. 3's second observation: OPT-30B density ≈ 3× lower than
	// OPT-6.7B. Accept anything ≥2× with the right ordering.
	density := func(name string) float64 {
		spec := SpecForModel(model.MustByName(name), 11)
		p := New(spec)
		var sum float64
		var n int
		for step := 0; step < 256; step++ {
			rows := p.Next()
			if step < 64 {
				continue
			}
			for _, row := range rows {
				sum += 1 - metrics.Sparsity(row, 0.01)
				n++
			}
		}
		return sum / float64(n)
	}
	small := density("opt-6.7b")
	mid := density("opt-13b")
	large := density("opt-30b")
	if !(small > mid && mid > large) {
		t.Fatalf("density ordering violated: 6.7B=%.4f 13B=%.4f 30B=%.4f", small, mid, large)
	}
	if small/large < 2 {
		t.Fatalf("OPT-30B density should be ≫ lower than 6.7B: %.4f vs %.4f", large, small)
	}
}

func TestMaskRowExactRenormalisation(t *testing.T) {
	dense := []float64{0.4, 0.3, 0.2, 0.1}
	idx, w := MaskRow(dense, []int{0, 2})
	if len(idx) != 3 || idx[2] != 3 {
		t.Fatalf("indices = %v, want [0 2 3]", idx)
	}
	total := 0.4 + 0.2 + 0.1
	want := []float64{0.4 / total, 0.2 / total, 0.1 / total}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("weights = %v, want %v", w, want)
		}
	}
}

func TestEvaluateDenseRecallIsOne(t *testing.T) {
	res := Evaluate(DefaultSpec(2, 5), attention.MustByName("dense", 1, 2), 64)
	if math.Abs(res.MeanRecall-1) > 1e-9 {
		t.Fatalf("dense recall = %v, want 1", res.MeanRecall)
	}
}

func TestEvaluatePolicyOrdering(t *testing.T) {
	// The paper's core accuracy claim (Fig. 4/8): at the same caching
	// ratio, SWA retains far more attention mass than local or strided.
	const ratio = 0.2
	const steps = 384
	spec := SpecForModel(model.MustByName("opt-6.7b"), 17)
	local := Evaluate(spec, attention.MustByName("local", ratio, spec.Layers), steps)
	strided := Evaluate(spec, attention.MustByName("strided", ratio, spec.Layers), steps)
	swa := Evaluate(spec, attention.MustByName("swa", ratio, spec.Layers), steps)

	if swa.MeanRecall <= local.MeanRecall {
		t.Fatalf("SWA recall %.3f should beat local %.3f", swa.MeanRecall, local.MeanRecall)
	}
	if swa.MeanRecall <= strided.MeanRecall {
		t.Fatalf("SWA recall %.3f should beat strided %.3f", swa.MeanRecall, strided.MeanRecall)
	}
	if swa.MeanRecall < 0.85 {
		t.Fatalf("SWA at 80%% sparsity should keep most mass, got %.3f", swa.MeanRecall)
	}
}

func TestSpearmanOrderingMatchesFig4(t *testing.T) {
	const ratio = 0.2
	const steps = 384
	spec := SpecForModel(model.MustByName("opt-6.7b"), 23)
	swa := Evaluate(spec, attention.MustByName("swa", ratio, spec.Layers), steps)
	local := Evaluate(spec, attention.MustByName("local", ratio, spec.Layers), steps)

	rhoSWA, err := swa.SpearmanVsDense()
	if err != nil {
		t.Fatal(err)
	}
	rhoLocal, err := local.SpearmanVsDense()
	if err != nil {
		t.Fatal(err)
	}
	if rhoSWA <= rhoLocal {
		t.Fatalf("SWA ρ %.3f should beat local ρ %.3f", rhoSWA, rhoLocal)
	}
	if rhoSWA < 0.8 {
		t.Fatalf("SWA ρ = %.3f, paper reports ≈1", rhoSWA)
	}
}

func TestAttentionMapCausalAndSinkHeavy(t *testing.T) {
	m := AttentionMap(DefaultSpec(4, 31), 16)
	if len(m) != 16 {
		t.Fatalf("map has %d rows", len(m))
	}
	for i := range m {
		for j := i + 1; j < 16; j++ {
			if m[i][j] != 0 {
				t.Fatalf("causality violated at (%d,%d)", i, j)
			}
		}
	}
	// The sink column (0) should, averaged over seeds, outweigh the
	// mid-distance columns for late rows — the "important tokens far from
	// the current token" observation behind Fig. 5. A single seed can have
	// an unlucky base draw, so average over several processes.
	var sink, mid float64
	for seed := int64(0); seed < 12; seed++ {
		mm := AttentionMap(DefaultSpec(4, seed), 16)
		for i := 8; i < 16; i++ {
			sink += mm[i][0]
			for j := 3; j < 8; j++ {
				mid += mm[i][j] / 5
			}
		}
	}
	if sink <= mid {
		t.Fatalf("sink column %.4f should outweigh mid columns %.4f", sink, mid)
	}
}

func TestEvaluateMaskedSparsityAtLeastDense(t *testing.T) {
	// Masking can only remove mass from positions, so measured sparsity of
	// masked rows must be ≥ dense rows on average (Fig. 10's mechanism).
	spec := SpecForModel(model.MustByName("opt-6.7b"), 41)
	const steps = 256
	swa := Evaluate(spec, attention.MustByName("swa", 0.2, spec.Layers), steps)
	var maskedAvg, denseAvg float64
	for t0 := 64; t0 < steps; t0++ {
		maskedAvg += swa.MaskedSparsityPerStep[t0]
		denseAvg += swa.DenseSparsityPerStep[t0]
	}
	if maskedAvg < denseAvg {
		t.Fatalf("masked sparsity %.3f should be ≥ dense %.3f", maskedAvg, denseAvg)
	}
}

func TestNewPanicsOnZeroLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero layers")
		}
	}()
	New(Spec{Layers: 0})
}
