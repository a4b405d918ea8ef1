// Package f16 implements IEEE-754 binary16 (half precision) conversion.
//
// The paper stores KV tensors in FP16 and quantizes them to INT8 for
// transfer; this package provides the FP16 leg so byte-level accounting and
// round-trip precision in the simulator match what a GPU runtime would see.
// Conversions use round-to-nearest-even, the hardware default.
package f16

import "math"

// F16 is a half-precision float stored in its 16-bit wire format.
type F16 uint16

const (
	signMask16     = 0x8000
	expMask16      = 0x7C00
	fracMask16     = 0x03FF
	expBias16      = 15
	positiveInf    = F16(0x7C00)
	negativeInf    = F16(0xFC00)
	quietNaN       = F16(0x7E00)
	smallestSubn32 = 0x33000000 // float32 bits of 2^-25, the f16 rounding floor
)

// FromFloat32 converts f to half precision with round-to-nearest-even.
// Values beyond ±65504 become ±Inf; NaN is preserved as a quiet NaN.
func FromFloat32(f float32) F16 {
	b := math.Float32bits(f)
	sign := F16((b >> 16) & signMask16)
	exp := int32((b>>23)&0xFF) - 127
	frac := b & 0x7FFFFF

	switch {
	case exp == 128: // Inf or NaN
		if frac != 0 {
			return sign | quietNaN
		}
		return sign | positiveInf
	case exp > 15: // overflow to infinity
		return sign | positiveInf
	case exp >= -14: // normal range
		// 10 fraction bits; round-to-nearest-even on the truncated 13 bits.
		out := uint32(exp+expBias16)<<10 | frac>>13
		rem := frac & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && out&1 == 1) {
			out++ // may carry into the exponent, which is correct behaviour
		}
		return sign | F16(out)
	case exp >= -25: // subnormal range
		// The f16 subnormal integer is round(1.frac · 2^(exp+24)), i.e. the
		// full 24-bit mantissa shifted right by -(exp+1) ∈ [14, 24] bits.
		shift := uint32(-exp - 1)
		mant := frac | 0x800000
		out := mant >> shift
		rem := mant & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && out&1 == 1) {
			out++
		}
		return sign | F16(out)
	default: // underflow to signed zero
		return sign
	}
}

// Float32 converts h back to single precision exactly (every f16 value is
// representable in f32).
func (h F16) Float32() float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&expMask16) >> 10
	frac := uint32(h & fracMask16)

	switch exp {
	case 0:
		if frac == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalise into f32.
		e := int32(-14)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask16
		return math.Float32frombits(sign | uint32(e+127)<<23 | frac<<13)
	case 0x1F:
		if frac == 0 {
			return math.Float32frombits(sign | 0x7F800000) // Inf
		}
		return math.Float32frombits(sign | 0x7FC00000 | frac<<13) // NaN
	default:
		return math.Float32frombits(sign | (exp-expBias16+127)<<23 | frac<<13)
	}
}

// IsNaN reports whether h encodes a NaN.
func (h F16) IsNaN() bool {
	return h&expMask16 == expMask16 && h&fracMask16 != 0
}

// IsInf reports whether h encodes an infinity.
func (h F16) IsInf() bool {
	return h&expMask16 == expMask16 && h&fracMask16 == 0
}

// RoundTripSlice applies an encode/decode round trip in place, imposing
// half-precision resolution on src — how the simulator models FP16 KV
// storage without keeping a second buffer.
func RoundTripSlice(src []float32) {
	for i, v := range src {
		src[i] = FromFloat32(v).Float32()
	}
}

// Bytes reports the storage size in bytes of n half-precision values.
func Bytes(n int) int64 { return int64(n) * 2 }
