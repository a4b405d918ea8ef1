package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzQuantRoundTrip checks, on arbitrary finite matrices, that the
// channel-wise quantizer honours its contract: codes stay on the b-bit
// grid, the reconstruction error of every element respects the
// per-channel half-step bound of Eq. 7 (with a float32-arithmetic slack),
// and the in-place RoundTrip reproduces Quantize + Dequantize bit for bit.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 2, 8)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 1, 4)
	f.Add([]byte{255, 255, 127, 127, 1, 0, 0, 0}, 1, 8)
	f.Fuzz(func(t *testing.T, data []byte, cols, bits int) {
		if len(data) > 1<<14 {
			t.Skip("cap input size")
		}
		if cols < 1 {
			cols = 1
		}
		if cols > 64 {
			cols = cols%64 + 1
		}
		bits = ((bits%16)+16)%16 + 1 // 1..16
		n := len(data) / 4
		rows := n / cols
		if rows == 0 {
			t.Skip("not enough data for one row")
		}
		vals := make([]float32, rows*cols)
		for i := range vals {
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			vals[i] = v
		}
		m := tensor.FromSlice(rows, cols, vals)

		q := Quantize(m, bits)
		levels := int32(1)<<bits - 1
		for i, code := range q.Codes {
			if code < 0 || code > levels {
				t.Fatalf("code %d at %d off the %d-bit grid", code, i, bits)
			}
		}
		if got := q.Bytes(); got <= 0 {
			t.Fatalf("non-positive wire size %d", got)
		}

		d := q.Dequantize()
		for c := 0; c < cols; c++ {
			scale := float64(q.Scale[c])
			// Half a quantization step, plus the irreducible float32
			// terms: clamp slack at the channel extremes (the stored
			// scale's rounding can push the top code past the grid) and
			// the output's own representation rounding.
			base := q.MaxError(c)*(1+1e-5) + scale*float64(levels)*2e-7 + 1e-38
			for r := 0; r < rows; r++ {
				bound := base + math.Abs(float64(m.At(r, c)))*2.4e-7
				err := math.Abs(float64(m.At(r, c)) - float64(d.At(r, c)))
				if err > bound {
					t.Fatalf("channel %d row %d (bits %d): |%v - %v| = %g exceeds bound %g (scale %v)",
						c, r, bits, m.At(r, c), d.At(r, c), err, bound, q.Scale[c])
				}
			}
		}

		RoundTrip(m, bits)
		for i, x := range m.Data {
			if math.Float32bits(x) != math.Float32bits(d.Data[i]) {
				t.Fatalf("element %d (bits %d): RoundTrip %v, Quantize+Dequantize %v", i, bits, x, d.Data[i])
			}
		}
	})
}
