package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(64, 8)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * 3)
	}
	q := Quantize(m, 8)
	d := q.Dequantize()
	for c := 0; c < m.Cols; c++ {
		bound := q.MaxError(c) + 1e-6
		for r := 0; r < m.Rows; r++ {
			diff := math.Abs(float64(m.At(r, c)) - float64(d.At(r, c)))
			if diff > bound {
				t.Fatalf("channel %d row %d error %v exceeds λ/2 bound %v", c, r, diff, bound)
			}
		}
	}
}

func TestExtremesAreExact(t *testing.T) {
	// Channel min and max sit exactly on grid points, so they reconstruct
	// exactly (up to float32 rounding).
	m := tensor.FromSlice(4, 1, []float32{-3, -1, 2, 5})
	d := Quantize(m, 8).Dequantize()
	if math.Abs(float64(d.At(0, 0)+3)) > 1e-5 {
		t.Fatalf("min reconstructed as %v, want -3", d.At(0, 0))
	}
	if math.Abs(float64(d.At(3, 0)-5)) > 1e-5 {
		t.Fatalf("max reconstructed as %v, want 5", d.At(3, 0))
	}
}

func TestConstantChannelLossless(t *testing.T) {
	m := tensor.FromSlice(3, 2, []float32{7, -2, 7, -2, 7, -2})
	d := Quantize(m, 8).Dequantize()
	if !d.Equal(m, 1e-6) {
		t.Fatalf("constant channels should be lossless: %v vs %v", d.Data, m.Data)
	}
}

func TestChannelsIndependent(t *testing.T) {
	// A huge-range channel must not degrade a small-range one.
	m := tensor.New(16, 2)
	rng := rand.New(rand.NewSource(2))
	for r := 0; r < 16; r++ {
		m.Set(r, 0, float32(rng.NormFloat64()*1000))
		m.Set(r, 1, float32(rng.NormFloat64()*0.01))
	}
	q := Quantize(m, 8)
	if q.MaxError(1) > 0.001 {
		t.Fatalf("small channel error bound %v polluted by large channel", q.MaxError(1))
	}
}

func TestCodesWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.New(32, 4)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	for _, bits := range []int{1, 2, 4, 8} {
		q := Quantize(m, bits)
		limit := int32(1)<<bits - 1
		for i, code := range q.Codes {
			if code < 0 || code > limit {
				t.Fatalf("bits=%d code[%d]=%d out of [0,%d]", bits, i, code, limit)
			}
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	q := &Tensor{Rows: 10, Cols: 4, Bits: 8}
	// 40 codes at 1 byte + 4 channels × 4 bytes of parameters.
	if got := q.Bytes(); got != 40+16 {
		t.Fatalf("Bytes = %d, want 56", got)
	}
	q4 := &Tensor{Rows: 10, Cols: 4, Bits: 4}
	if got := q4.Bytes(); got != 20+16 {
		t.Fatalf("4-bit Bytes = %d, want 36", got)
	}
}

func TestCompressionRatioApproachesTwo(t *testing.T) {
	// For large tensors the per-channel parameter overhead vanishes and
	// INT8 achieves ~2× over FP16.
	ratio := func(bits int) float64 {
		q := &Tensor{Rows: 4096, Cols: 128, Bits: bits}
		return float64(4096*128*2) / float64(q.Bytes())
	}
	r := ratio(8)
	if r < 1.9 || r > 2.0 {
		t.Fatalf("INT8 compression ratio = %v, want ≈2", r)
	}
	r4 := ratio(4)
	if r4 < 3.8 || r4 > 4.0 {
		t.Fatalf("INT4 compression ratio = %v, want ≈4", r4)
	}
}

func TestUnsupportedBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0-bit quantization")
		}
	}()
	Quantize(tensor.New(1, 1), 0)
}

func TestRoundTripInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := tensor.New(8, 8)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	orig := m.Clone()
	RoundTrip(m, 8)
	q := Quantize(orig, 8)
	for c := 0; c < 8; c++ {
		for r := 0; r < 8; r++ {
			diff := math.Abs(float64(m.At(r, c) - orig.At(r, c)))
			if diff > q.MaxError(c)+1e-6 {
				t.Fatalf("in-place round trip error %v exceeds bound", diff)
			}
		}
	}
	// The decode path round-trips the KV cache every step: it must build
	// neither a Tensor nor a Matrix.
	if allocs := testing.AllocsPerRun(20, func() { RoundTrip(m, 8) }); allocs != 0 {
		t.Fatalf("RoundTrip allocates %v times per call, want 0", allocs)
	}
}

// Property: quantization error never exceeds λ/2 per channel, for random
// shapes, values, and bit widths.
func TestErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(16)
		cols := 1 + rng.Intn(8)
		bits := 1 + rng.Intn(8)
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		}
		q := Quantize(m, bits)
		d := q.Dequantize()
		for c := 0; c < cols; c++ {
			bound := q.MaxError(c) * (1 + 1e-4)
			for r := 0; r < rows; r++ {
				if math.Abs(float64(m.At(r, c))-float64(d.At(r, c))) > bound+1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization is idempotent — quantizing a dequantized tensor
// reproduces it exactly.
func TestIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tensor.New(1+rng.Intn(8), 1+rng.Intn(4))
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		once := Quantize(m, 8).Dequantize()
		twice := Quantize(once, 8).Dequantize()
		return twice.Equal(once, 1e-5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
