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
	levels := topCode(bits)
	q := &Tensor{
		Rows:  m.Rows,
		Cols:  m.Cols,
		Bits:  bits,
		Codes: make([]int32, m.Rows*m.Cols),
		Scale: make([]float32, m.Cols),
		Zero:  make([]float32, m.Cols),
	}
	for c := 0; c < m.Cols; c++ {
		q.Scale[c], q.Zero[c] = channelParams(m, c, levels)
		sc, z := float64(q.Scale[c]), float64(q.Zero[c])
		for i := c; i < len(m.Data); i += m.Cols {
			q.Codes[i] = encode(m.Data[i], sc, z, levels)
		}
	}
	return q
}

// topCode returns the largest b-bit code, 2^b − 1, panicking on a width
// outside 1..16.
func topCode(bits int) float64 {
	if bits < 1 || bits > 16 {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	return float64(int32(1)<<bits - 1)
}

// channelParams returns channel c's stored scale λ = (max − min)/levels
// and zero point z = −min/λ, which maps the channel minimum to code 0.
// λ is 1 for a constant channel, and for a range so narrow that λ falls
// below float32's smallest normal: a zero stored scale would make every
// code 0/0, and a subnormal one keeps too few significant bits for
// λ·(code − z) to land within half a step of the channel's values.
func channelParams(m *tensor.Matrix, c int, levels float64) (scale, zero float32) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := c; i < len(m.Data); i += m.Cols {
		v := float64(m.Data[i])
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
	s := (hi - lo) / levels
	if float32(s) < 0x1p-126 {
		s = 1 // every value maps to code 0 + zero offset
	}
	return float32(s), float32(-lo / s)
}

// encode returns x's code round(x/λ + z), clamped to [0, levels]. It takes
// the parameters as stored (FP16/FP32 on the wire), not their exact
// float64 precursors: decoding uses the stored values, so rounding them
// before computing codes keeps the round-trip error inside the half-step
// bound instead of adding a hidden parameter-rounding term.
func encode(x float32, scale, zero, levels float64) int32 {
	code := math.Round(float64(x)/scale + zero)
	if code < 0 {
		code = 0
	}
	if code > levels {
		code = levels
	}
	return int32(code)
}

// decode reconstructs λ·(code − z). The exact reconstruction never
// exceeds the observed channel range, so a value pushed past float32 by
// the rounding of the stored λ is clamped to the finite float32 range
// rather than overflowing to ±Inf.
func decode(code int32, scale, zero float64) float32 {
	x := scale * (float64(code) - zero)
	if x > math.MaxFloat32 {
		x = math.MaxFloat32
	} else if x < -math.MaxFloat32 {
		x = -math.MaxFloat32
	}
	return float32(x)
}

// Dequantize reconstructs the floating-point matrix: x = λ·(code − z),
// clamped to the finite float32 range.
func (q *Tensor) Dequantize() *tensor.Matrix {
	m := tensor.New(q.Rows, q.Cols)
	for c := 0; c < q.Cols; c++ {
		scale, zero := float64(q.Scale[c]), float64(q.Zero[c])
		for i := c; i < len(m.Data); i += q.Cols {
			m.Data[i] = decode(q.Codes[i], scale, zero)
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
// when KV tensors cross the PCIe link in compressed form. It leaves m
// equal, bit for bit, to Quantize(m, bits).Dequantize(), without building
// either: each element goes through its code and back in one pass per
// channel.
func RoundTrip(m *tensor.Matrix, bits int) {
	levels := topCode(bits)
	for c := 0; c < m.Cols; c++ {
		scale, zero := channelParams(m, c, levels)
		sc, z := float64(scale), float64(zero)
		for i := c; i < len(m.Data); i += m.Cols {
			m.Data[i] = decode(encode(m.Data[i], sc, z, levels), sc, z)
		}
	}
}
