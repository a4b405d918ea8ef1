// Package quant implements the KV compression of ALISA §V-B: fine-grained
// channel-wise quantization of KV tensors to b-bit integers (INT8 in the
// paper), with dequantization back to floating point for computation.
//
// Following Eq. 7 of the paper, for each channel with observed range
// [min, max] the scale is λ = (max − min)/(2^b − 1) and values quantize as
// round(x/λ + z). The zero point z is chosen so that min maps to the lowest
// code, making the transform affine and exactly invertible at the grid
// points. Per-channel parameters make the scheme robust to the wildly
// different magnitudes of key and value channels (Chmiel et al., cited as
// [9] in the paper).
package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Tensor is a channel-wise quantized matrix: rows are tokens, columns are
// channels, and each channel carries its own (scale, zero-point) pair.
type Tensor struct {
	Rows, Cols int
	Bits       int
	Codes      []int32   // Rows*Cols codes in [0, 2^Bits-1]
	Scale      []float32 // per-channel λ
	Zero       []float32 // per-channel z (in code units)
}

// Quantize compresses m channel-wise to the given bit width (1..16).
// Constant channels quantize losslessly with λ chosen as 1.
func Quantize(m *tensor.Matrix, bits int) *Tensor {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	q := &Tensor{
		Rows:  m.Rows,
		Cols:  m.Cols,
		Bits:  bits,
		Codes: make([]int32, m.Rows*m.Cols),
		Scale: make([]float32, m.Cols),
		Zero:  make([]float32, m.Cols),
	}
	levels := float64(int32(1)<<bits - 1)
	for c := 0; c < m.Cols; c++ {
		lo, hi := channelRange(m, c)
		scale := (hi - lo) / levels
		if scale == 0 {
			scale = 1 // constant channel: every value maps to code 0 + zero offset
		}
		q.Scale[c] = float32(scale)
		q.Zero[c] = float32(-lo / scale)
		// Quantize against the parameters as stored (FP16/FP32 on the
		// wire), not their exact float64 precursors: dequantization uses
		// the stored values, so rounding them before computing codes keeps
		// the round-trip error inside the half-step bound instead of
		// adding a hidden parameter-rounding term.
		sc := float64(q.Scale[c])
		z := float64(q.Zero[c])
		for r := 0; r < m.Rows; r++ {
			code := math.Round(float64(m.At(r, c))/sc + z)
			if code < 0 {
				code = 0
			}
			if code > levels {
				code = levels
			}
			q.Codes[r*m.Cols+c] = int32(code)
		}
	}
	return q
}

func channelRange(m *tensor.Matrix, c int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for r := 0; r < m.Rows; r++ {
		v := float64(m.At(r, c))
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if m.Rows == 0 {
		lo, hi = 0, 0
	}
	return lo, hi
}

// Dequantize reconstructs the floating-point matrix: x = λ·(code − z).
// The exact reconstruction never exceeds the observed channel range, so a
// value pushed past float32 by the rounding of the stored λ is clamped to
// the finite float32 range rather than overflowing to ±Inf.
func (q *Tensor) Dequantize() *tensor.Matrix {
	m := tensor.New(q.Rows, q.Cols)
	for c := 0; c < q.Cols; c++ {
		scale := float64(q.Scale[c])
		zero := float64(q.Zero[c])
		for r := 0; r < q.Rows; r++ {
			x := scale * (float64(q.Codes[r*q.Cols+c]) - zero)
			if x > math.MaxFloat32 {
				x = math.MaxFloat32
			} else if x < -math.MaxFloat32 {
				x = -math.MaxFloat32
			}
			m.Set(r, c, float32(x))
		}
	}
	return m
}

// MaxError returns the worst-case absolute reconstruction error bound for
// channel c: half a quantization step.
func (q *Tensor) MaxError(c int) float64 { return float64(q.Scale[c]) / 2 }

// Bytes reports the wire size of the quantized tensor: packed codes plus
// one scale and one zero point per channel (stored as FP16 on the wire).
func (q *Tensor) Bytes() int64 {
	codeBits := int64(q.Rows) * int64(q.Cols) * int64(q.Bits)
	codeBytes := (codeBits + 7) / 8
	paramBytes := int64(q.Cols) * 4 // scale + zero, 2 bytes each in FP16
	return codeBytes + paramBytes
}

// RoundTrip imposes quantization error on m in place, as the simulator does
// when KV tensors cross the PCIe link in compressed form.
func RoundTrip(m *tensor.Matrix, bits int) {
	d := Quantize(m, bits).Dequantize()
	copy(m.Data, d.Data)
}
