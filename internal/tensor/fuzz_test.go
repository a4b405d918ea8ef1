package tensor

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// refArgTopK is the sort-based reference for ArgTopK's contract: indices
// of the k largest values, descending by value, ties toward the lower
// index.
func refArgTopK(v []float32, k int) []int {
	if k > len(v) {
		k = len(v)
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if v[idx[a]] != v[idx[b]] {
			return v[idx[a]] > v[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// decodeFloats turns fuzz bytes into a finite float32 vector. NaNs would
// make the selection order itself ill-defined (x != x), so they map to 0;
// infinities are kept — the quickselect must order them correctly.
func decodeFloats(data []byte) []float32 {
	n := len(data) / 4
	v := make([]float32, n)
	for i := 0; i < n; i++ {
		f := math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		if f != f {
			f = 0
		}
		v[i] = f
	}
	return v
}

// FuzzArgTopK cross-checks the deterministic quickselect against the
// sort-based reference on arbitrary vectors and budgets, in both output
// orders: ArgTopK's descending values and TopKAscending's ascending
// indices.
func FuzzArgTopK(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 2)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 1)         // ties
	f.Add([]byte{0, 0, 128, 127, 0, 0, 128, 255}, 2) // +Inf, -Inf
	f.Add([]byte{}, 3)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		if len(data) > 1<<16 {
			t.Skip("cap input size")
		}
		v := decodeFloats(data)
		if k < -1 {
			k = -k
		}
		got := ArgTopK(v, k)
		want := refArgTopK(v, k)
		if len(got) != len(want) {
			t.Fatalf("len(v)=%d k=%d: got %d indices, want %d", len(v), k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("len(v)=%d k=%d: index %d: got %d (%v), want %d (%v)",
					len(v), k, i, got[i], v[got[i]], want[i], v[want[i]])
			}
		}
		// The scratch path must agree with the allocating wrapper when
		// reusing state across calls.
		var s TopKScratch
		var dst []int
		for round := 0; round < 2; round++ {
			dst = s.ArgTopK(v, k, dst)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("scratch round %d diverged at %d: got %d want %d", round, i, dst[i], want[i])
				}
			}
		}
		sort.Ints(want)
		for round := 0; round < 2; round++ {
			dst = s.TopKAscending(v, k, dst)
			if !slices.Equal(dst, want) {
				t.Fatalf("len(v)=%d k=%d: TopKAscending round %d = %v, want %v", len(v), k, round, dst, want)
			}
		}
	})
}
