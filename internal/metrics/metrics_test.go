package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpearmanPerfectCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{10, 20, 30, 40, 50}
	rho, err := Spearman(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("ρ = %v, want 1", rho)
	}
}

func TestSpearmanPerfectAnticorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{9, 7, 5, 3}
	rho, err := Spearman(a, []float64{-b[0], -b[1], -b[2], -b[3]})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("negated anticorrelation ρ = %v, want 1", rho)
	}
	rho, err = Spearman(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho+1) > 1e-12 {
		t.Fatalf("ρ = %v, want -1", rho)
	}
}

func TestSpearmanMonotoneTransformInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = math.Exp(a[i]) // strictly monotone transform
	}
	rho, err := Spearman(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("monotone transform ρ = %v, want 1", rho)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties, fractional ranks keep ρ well-defined and symmetric.
	a := []float64{1, 1, 2, 3}
	b := []float64{2, 2, 4, 6}
	rho, err := Spearman(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Fatalf("tied ρ = %v, want 1", rho)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Spearman([]float64{1}, []float64{2}); err == nil {
		t.Fatal("expected too-short error")
	}
	if _, err := Spearman([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected zero-variance error for constant input")
	}
}

func TestFractionalRanks(t *testing.T) {
	got := FractionalRanks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestSparsityThreshold(t *testing.T) {
	// max = 1.0; cut at 1% → 0.01. Elements below 0.01 are "zeros".
	row := []float64{1.0, 0.5, 0.009, 0.0001, 0}
	if got := Sparsity(row, 0.01); got != 3.0/5 {
		t.Fatalf("sparsity = %v, want 0.6", got)
	}
}

func TestSparsityDegenerate(t *testing.T) {
	if Sparsity(nil, 0.01) != 0 {
		t.Fatal("empty row sparsity should be 0")
	}
	if Sparsity([]float64{0, 0}, 0.01) != 1 {
		t.Fatal("all-zero row should be fully sparse")
	}
}

func TestMassRecall(t *testing.T) {
	w := []float64{0.5, 0.3, 0.1, 0.1}
	if got := MassRecall(w, []int{0, 1}); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("recall = %v, want 0.8", got)
	}
	// Duplicates and out-of-range indices are ignored.
	if got := MassRecall(w, []int{0, 0, 99, -1}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("recall with dupes = %v, want 0.5", got)
	}
	if MassRecall([]float64{0, 0}, nil) != 1 {
		t.Fatal("zero-mass weights should recall 1")
	}
}

func TestPerplexityProxyShape(t *testing.T) {
	dense := 12.0
	if got := PerplexityProxy(dense, 1.0); got != dense {
		t.Fatalf("full recall ppl = %v, want dense %v", got, dense)
	}
	nearly := PerplexityProxy(dense, 0.99)
	if (nearly-dense)/dense > 0.05 {
		t.Fatalf("99%% recall should degrade <5%%: %v vs %v", nearly, dense)
	}
	collapsed := PerplexityProxy(dense, 0.4)
	if collapsed < dense*5 {
		t.Fatalf("40%% recall should collapse: %v vs dense %v", collapsed, dense)
	}
	// Monotone: less recall, more perplexity.
	prev := dense
	for r := 0.99; r >= 0; r -= 0.01 {
		cur := PerplexityProxy(dense, r)
		if cur < prev {
			t.Fatalf("perplexity not monotone at recall %v", r)
		}
		prev = cur
	}
}

func TestAccuracyProxyShape(t *testing.T) {
	dense, chance := 0.78, 0.25
	if got := AccuracyProxy(dense, chance, 1); got != dense {
		t.Fatalf("full recall acc = %v, want %v", got, dense)
	}
	if got := AccuracyProxy(dense, chance, 0); got < chance-1e-9 || got > chance+0.02 {
		t.Fatalf("zero recall should approach chance: %v", got)
	}
	hi := AccuracyProxy(dense, chance, 0.98)
	if dense-hi > 0.05 {
		t.Fatalf("98%% recall should stay near dense: %v", hi)
	}
}

func TestMeanPercentile(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean broken")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	v := []float64{4, 1, 3, 2}
	if p := Percentile(v, 50); math.Abs(p-2.5) > 1e-12 {
		t.Fatalf("median = %v, want 2.5", p)
	}
	if Percentile(v, 0) != 1 || Percentile(v, 100) != 4 {
		t.Fatal("percentile extremes broken")
	}
}

// Property: Spearman ρ is symmetric and bounded in [-1, 1].
func TestSpearmanBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		ab, err1 := Spearman(a, b)
		ba, err2 := Spearman(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(ab-ba) < 1e-9 && ab >= -1-1e-9 && ab <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MassRecall of the full index set is 1; of the empty set with
// positive mass is 0; and adding indices never decreases recall.
func TestMassRecallMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if math.Abs(MassRecall(w, all)-1) > 1e-9 {
			return false
		}
		prev := 0.0
		for k := 0; k <= n; k++ {
			cur := MassRecall(w, all[:k])
			if cur+1e-12 < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparsityMaskedMatchesMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		rowLen := 1 + rng.Intn(96)
		k := 1 + rng.Intn(rowLen)
		// Distinct positions for the retained weights.
		perm := rng.Perm(rowLen)[:k]
		weights := make([]float64, k)
		for i := range weights {
			switch rng.Intn(4) {
			case 0:
				weights[i] = 0
			default:
				weights[i] = rng.Float64()
			}
		}
		row := make([]float64, rowLen)
		for i, p := range perm {
			row[p] = weights[i]
		}
		for _, threshold := range []float64{0.01, 0.1, 0} {
			want := Sparsity(row, threshold)
			got := SparsityMasked(weights, rowLen, threshold)
			if got != want {
				t.Fatalf("trial %d (rowLen=%d k=%d thr=%v): SparsityMasked=%v, Sparsity=%v",
					trial, rowLen, k, threshold, got, want)
			}
		}
	}
	// Degenerate shapes.
	if got := SparsityMasked(nil, 0, 0.01); got != 0 {
		t.Errorf("empty row: got %v, want 0", got)
	}
	if got, want := SparsityMasked(nil, 5, 0.01), Sparsity(make([]float64, 5), 0.01); got != want {
		t.Errorf("all-implicit-zero row: got %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s != (LatencySummary{}) {
		t.Errorf("empty input: %+v", s)
	}
	v := []float64{5, 1, 4, 2, 3}
	s := Summarize(v)
	if s.Mean != 3 || s.P50 != 3 || s.Max != 5 {
		t.Errorf("summary %+v", s)
	}
	// Percentile fields must agree with the standalone Percentile and be
	// monotone.
	for _, p := range []struct {
		name string
		got  float64
		pct  float64
	}{{"p50", s.P50, 50}, {"p95", s.P95, 95}, {"p99", s.P99, 99}} {
		if want := Percentile(v, p.pct); p.got != want {
			t.Errorf("%s = %v, Percentile gives %v", p.name, p.got, want)
		}
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("percentiles not monotone: %+v", s)
	}
	// Input must not be reordered.
	if v[0] != 5 || v[4] != 3 {
		t.Errorf("Summarize mutated its input: %v", v)
	}
}

// TestSummarizeIntoMatchesSummarize pins the scratch-reusing digest
// bit-for-bit against Summarize, across sizes and one buffer threaded
// through every call — the serving finalizer's usage pattern.
func TestSummarizeIntoMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var scratch []float64
	for _, n := range []int{0, 1, 2, 3, 7, 50, 501} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		orig := append([]float64(nil), v...)
		want := Summarize(v)
		var got LatencySummary
		got, scratch = SummarizeInto(v, scratch)
		if got != want {
			t.Fatalf("n=%d: SummarizeInto %+v != Summarize %+v", n, got, want)
		}
		for i := range v {
			if v[i] != orig[i] {
				t.Fatalf("n=%d: SummarizeInto mutated its input at %d", n, i)
			}
		}
	}
	// A reused scratch larger than the next input must not leak stale
	// values into the digest.
	small := []float64{2, 1}
	got, _ := SummarizeInto(small, scratch)
	if want := Summarize(small); got != want {
		t.Fatalf("reused scratch corrupted digest: %+v != %+v", got, want)
	}
}
