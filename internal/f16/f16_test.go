package f16

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	cases := []struct {
		in   float32
		want float32
	}{
		{0, 0},
		{1, 1},
		{-1, -1},
		{0.5, 0.5},
		{2, 2},
		{65504, 65504},                     // max finite
		{6.103515625e-05, 6.103515625e-05}, // smallest normal 2^-14
		{5.960464477539063e-08, 5.960464477539063e-08}, // smallest subnormal 2^-24
	}
	for _, c := range cases {
		if got := FromFloat32(c.in).Float32(); got != c.want {
			t.Errorf("round trip %v = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	if h := FromFloat32(70000); !h.IsInf() {
		t.Fatalf("70000 should overflow to Inf, got %v", h.Float32())
	}
	if h := FromFloat32(-70000); !h.IsInf() || h.Float32() > 0 {
		t.Fatalf("-70000 should overflow to -Inf, got %v", h.Float32())
	}
}

func TestNaNPreserved(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Fatal("NaN not preserved")
	}
	if !math.IsNaN(float64(h.Float32())) {
		t.Fatal("decoded NaN is not NaN")
	}
}

func TestInfPreserved(t *testing.T) {
	pos := FromFloat32(float32(math.Inf(1)))
	neg := FromFloat32(float32(math.Inf(-1)))
	if !pos.IsInf() || !neg.IsInf() {
		t.Fatal("infinity not preserved")
	}
	if !math.IsInf(float64(pos.Float32()), 1) || !math.IsInf(float64(neg.Float32()), -1) {
		t.Fatal("decoded infinity has wrong sign or value")
	}
}

func TestSignedZero(t *testing.T) {
	nz := FromFloat32(float32(math.Copysign(0, -1)))
	if f := nz.Float32(); math.Signbit(float64(f)) == false || f != 0 {
		t.Fatalf("negative zero round trip = %v", f)
	}
}

func TestUnderflowToZero(t *testing.T) {
	if f := FromFloat32(1e-10).Float32(); f != 0 {
		t.Fatalf("1e-10 should underflow to zero, got %v", f)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; ties go to even
	// (the mantissa of 1.0), so the result must be exactly 1.
	in := float32(1 + 1.0/2048)
	if got := FromFloat32(in).Float32(); got != 1 {
		t.Fatalf("halfway value rounded to %v, want 1 (ties-to-even)", got)
	}
	// 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9; even mantissa is
	// the larger one here.
	in = float32(1 + 3.0/2048)
	want := float32(1 + 2.0/1024)
	if got := FromFloat32(in).Float32(); got != want {
		t.Fatalf("halfway value rounded to %v, want %v", got, want)
	}
}

func TestSliceHelpers(t *testing.T) {
	if Bytes(4) != 8 {
		t.Fatalf("Bytes(4) = %d, want 8", Bytes(4))
	}
}

func TestRoundTripSliceInPlace(t *testing.T) {
	v := []float32{1.0000001, 3.14159, -0.333333}
	orig := append([]float32(nil), v...)
	RoundTripSlice(v)
	for i := range v {
		if math.Abs(float64(v[i]-orig[i])) > 1e-3*math.Abs(float64(orig[i]))+1e-7 {
			t.Fatalf("round trip moved %v too far: %v", orig[i], v[i])
		}
	}
}

// Property: round trip error is bounded by half-ULP relative error (2^-11)
// for values in the normal f16 range.
func TestRoundTripErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for range make([]struct{}, 64) {
			v := float32(rng.NormFloat64() * 100)
			if v == 0 {
				continue
			}
			got := FromFloat32(v).Float32()
			rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
			if rel > 1.0/2048+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: conversion is monotone — a ≤ b implies f16(a) ≤ f16(b).
func TestMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := float32(rng.NormFloat64() * 1000)
		b := float32(rng.NormFloat64() * 1000)
		if a > b {
			a, b = b, a
		}
		return FromFloat32(a).Float32() <= FromFloat32(b).Float32()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding is idempotent — re-encoding a decoded value is exact.
func TestIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := float32(rng.NormFloat64() * 10)
		once := FromFloat32(v).Float32()
		twice := FromFloat32(once).Float32()
		return once == twice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllBitPatternsRoundTrip(t *testing.T) {
	// Every finite f16 bit pattern must survive f16 → f32 → f16 exactly.
	for bits := 0; bits < 1<<16; bits++ {
		h := F16(bits)
		if h.IsNaN() {
			continue
		}
		back := FromFloat32(h.Float32())
		if back != h {
			t.Fatalf("bit pattern %#04x decoded to %v re-encoded as %#04x", bits, h.Float32(), uint16(back))
		}
	}
}
