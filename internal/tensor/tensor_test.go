package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zeroed: %v", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float32{58, 64, 139, 154})
	if !got.Equal(want, 1e-6) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 7)
	b := randomMatrix(rng, 4, 7)
	bt := New(7, 4)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	if got, want := MatMulT(a, b), MatMul(a, bt); !got.Equal(want, 1e-5) {
		t.Fatalf("MatMulT disagrees with MatMul on transpose")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestSoftmaxAllNegInfBecomesZeros(t *testing.T) {
	inf := float32(math.Inf(-1))
	v := []float32{inf, inf, inf}
	SoftmaxInPlace(v)
	for i, x := range v {
		if x != 0 {
			t.Fatalf("element %d = %v, want 0", i, x)
		}
	}
}

func TestSoftmaxLargeValuesStable(t *testing.T) {
	v := []float32{1e30, 1e30, -1e30}
	SoftmaxInPlace(v)
	if math.IsNaN(float64(v[0])) || math.Abs(float64(v[0])-0.5) > 1e-5 {
		t.Fatalf("softmax unstable: %v", v)
	}
}

func TestGatherRows(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	g := GatherRows(m, []int{2, 0, 2})
	want := FromSlice(3, 2, []float32{5, 6, 1, 2, 5, 6})
	if !g.Equal(want, 0) {
		t.Fatalf("GatherRows = %v, want %v", g.Data, want.Data)
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range gather")
		}
	}()
	GatherRows(New(2, 2), []int{5})
}

func TestConcatRows(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(2, 2, []float32{3, 4, 5, 6})
	c := ConcatRows(a, b)
	want := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	if !c.Equal(want, 0) {
		t.Fatalf("ConcatRows = %v, want %v", c.Data, want.Data)
	}
}

func TestAppendRow(t *testing.T) {
	m := New(0, 3)
	m = m.AppendRow([]float32{1, 2, 3})
	m = m.AppendRow([]float32{4, 5, 6})
	if m.Rows != 2 || m.At(1, 1) != 5 {
		t.Fatalf("AppendRow produced %v", m)
	}
}

func TestArgTopK(t *testing.T) {
	v := []float32{0.1, 0.9, 0.3, 0.9, 0.2}
	got := ArgTopK(v, 3)
	// Ties break to the lower index: 1 before 3.
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgTopK = %v, want %v", got, want)
		}
	}
	if len(ArgTopK(v, 0)) != 0 {
		t.Fatal("ArgTopK(0) should be empty")
	}
	if len(ArgTopK(v, 99)) != len(v) {
		t.Fatal("ArgTopK should clamp k to len(v)")
	}
}

func TestTopKAscending(t *testing.T) {
	inf := float32(math.Inf(1))
	cases := []struct {
		name string
		v    []float32
		k    int
		want []int
	}{
		{"ties toward lower index", []float32{0.1, 0.9, 0.3, 0.9, 0.2}, 3, []int{1, 2, 3}},
		{"k zero", []float32{3, 1, 2}, 0, []int{}},
		{"k negative", []float32{3, 1, 2}, -2, []int{}},
		{"k equals len", []float32{3, 1, 2}, 3, []int{0, 1, 2}},
		{"k above len", []float32{3, 1, 2}, 9, []int{0, 1, 2}},
		{"empty", nil, 2, []int{}},
		{"all equal", []float32{5, 5, 5, 5, 5, 5}, 4, []int{0, 1, 2, 3}},
		{"infinities", []float32{-inf, 1, inf, -inf, inf, 0}, 3, []int{1, 2, 4}},
		{"only -Inf left", []float32{-inf, 1, -inf, inf}, 3, []int{0, 1, 3}},
	}
	var s TopKScratch
	for _, c := range cases {
		// A stale, longer dst must be overwritten from its start.
		got := s.TopKAscending(c.v, c.k, []int{7, 7, 7, 7, 7, 7, 7})
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: TopKAscending(%v, %d) = %v, want %v", c.name, c.v, c.k, got, c.want)
		}
	}
}

func TestLayerNormZeroMeanUnitVar(t *testing.T) {
	v := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	LayerNorm(v, nil, nil, 1e-5)
	var mean, varsum float64
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(len(v))
	for _, x := range v {
		d := float64(x) - mean
		varsum += d * d
	}
	if math.Abs(mean) > 1e-5 {
		t.Fatalf("mean after LayerNorm = %v", mean)
	}
	if math.Abs(varsum/float64(len(v))-1) > 1e-3 {
		t.Fatalf("variance after LayerNorm = %v", varsum/float64(len(v)))
	}
}

func TestLayerNormGainBias(t *testing.T) {
	v := []float32{1, 2, 3, 4}
	g := []float32{2, 2, 2, 2}
	b := []float32{1, 1, 1, 1}
	u := append([]float32(nil), v...)
	LayerNorm(u, nil, nil, 1e-5)
	LayerNorm(v, g, b, 1e-5)
	for i := range v {
		want := u[i]*2 + 1
		if math.Abs(float64(v[i]-want)) > 1e-4 {
			t.Fatalf("gain/bias mismatch at %d: %v vs %v", i, v[i], want)
		}
	}
}

// Property: gather with the identity permutation is the identity.
func TestGatherIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		m := randomMatrix(rng, rows, cols)
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = i
		}
		return GatherRows(m, idx).Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for finite input.
func TestSoftmaxDistributionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float32, 1+rng.Intn(32))
		for i := range v {
			v[i] = float32(rng.NormFloat64() * 10)
		}
		SoftmaxInPlace(v)
		var s float64
		for _, x := range v {
			if x < 0 || math.IsNaN(float64(x)) {
				return false
			}
			s += float64(x)
		}
		return math.Abs(s-1) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over ConcatRows on the left operand.
func TestMatMulConcatProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		n := 1 + rng.Intn(5)
		a := randomMatrix(rng, 1+rng.Intn(4), k)
		b := randomMatrix(rng, 1+rng.Intn(4), k)
		w := randomMatrix(rng, k, n)
		joint := MatMul(ConcatRows(a, b), w)
		split := ConcatRows(MatMul(a, w), MatMul(b, w))
		return joint.Equal(split, 1e-4)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func TestScaleAndAdd(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	m.Scale(2)
	want := FromSlice(1, 3, []float32{2, 4, 6})
	if !m.Equal(want, 0) {
		t.Fatalf("Scale = %v", m.Data)
	}
	m.Add(FromSlice(1, 3, []float32{1, 1, 1}))
	want = FromSlice(1, 3, []float32{3, 5, 7})
	if !m.Equal(want, 0) {
		t.Fatalf("Add = %v", m.Data)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 2).Add(New(2, 1))
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
	if m.Equal(c, 0) {
		t.Fatal("Equal should detect the difference")
	}
	if m.Equal(New(2, 1), 0) {
		t.Fatal("Equal should reject shape mismatch")
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestRowOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Row(5)
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(0, 7)
}

func TestConcatColMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ConcatRows(New(1, 2), New(1, 3))
}

func TestAppendRowLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 2).AppendRow([]float32{1, 2, 3})
}

func TestNegativeDimensionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

// argTopKReference is the original O(k·n) repeated-max selection, retained
// as the semantic oracle for the quickselect implementation: descending
// value order, ties toward the lower index.
func argTopKReference(v []float32, k int) []int {
	if k <= 0 {
		return nil
	}
	if k > len(v) {
		k = len(v)
	}
	idx := make([]int, 0, k)
	taken := make([]bool, len(v))
	for range make([]struct{}, k) {
		best := -1
		var bestV float32
		for i, x := range v {
			if taken[i] {
				continue
			}
			if best == -1 || x > bestV {
				best, bestV = i, x
			}
		}
		taken[best] = true
		idx = append(idx, best)
	}
	return idx
}

func TestArgTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var scratch TopKScratch
	var dst []int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		v := make([]float32, n)
		for i := range v {
			if rng.Intn(3) == 0 {
				// Force heavy ties to exercise the index tie-break.
				v[i] = float32(rng.Intn(4))
			} else {
				v[i] = float32(rng.NormFloat64())
			}
		}
		k := rng.Intn(n + 2)
		want := argTopKReference(v, k)
		got := ArgTopK(v, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): got %v, want %v\nv=%v", trial, n, k, got, want, v)
			}
		}
		dst = scratch.ArgTopK(v, k, dst)
		if len(dst) != len(want) {
			t.Fatalf("trial %d: scratch len %d, want %d", trial, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d: scratch got %v, want %v", trial, dst, want)
			}
		}
	}
}

func TestArgTopKSortedInputs(t *testing.T) {
	// Ascending, descending, and constant inputs are the quickselect's
	// classic worst cases; median-of-three must keep them linear and exact.
	const n = 512
	shapes := map[string]func(i int) float32{
		"ascending":  func(i int) float32 { return float32(i) },
		"descending": func(i int) float32 { return float32(n - i) },
		"constant":   func(i int) float32 { return 1 },
	}
	var scratch TopKScratch
	for name, f := range shapes {
		v := make([]float32, n)
		for i := range v {
			v[i] = f(i)
		}
		for _, k := range []int{1, 7, n / 2, n - 1, n} {
			want := argTopKReference(v, k)
			got := scratch.ArgTopK(v, k, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: got[%d]=%d, want %d", name, k, i, got[i], want[i])
				}
			}
		}
	}
}

func BenchmarkArgTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	v := make([]float32, 512)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	var scratch TopKScratch
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = scratch.ArgTopK(v, 102, dst)
	}
}
