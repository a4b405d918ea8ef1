// Package tensor provides the dense numeric substrate used by the runnable
// transformer model and the attention policies: row-major float32 matrices
// with the handful of operations LLM inference needs (matmul, softmax,
// top-k). Accumulation is performed in float64 so results are stable
// enough for cross-checking cached against uncached decoding.
//
// Shape mismatches are programmer errors and panic, mirroring the behaviour
// of the Go runtime on out-of-range slice indexing.
package tensor

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is a dense row-major matrix of float32 values.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix. The slice is used directly,
// not copied; len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 {
	m.checkIndex(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) {
	m.checkIndex(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns the i-th row as a slice sharing the matrix's backing array.
func (m *Matrix) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Equal reports whether m and n have identical shape and element-wise
// absolute difference at most tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(float64(m.Data[i])-float64(n.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MatMul returns a·b. a is m×k, b is k×n; the result is m×n. Row i is
// VecMatInto of a's row i.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		VecMatInto(out.Row(i), a.Row(i), b)
	}
	return out
}

// VecMatInto writes the row vector a·b into dst: one row of MatMul, with
// the same per-element arithmetic. len(a) must be b.Rows and len(dst)
// b.Cols.
//
//alisa:hotpath
func VecMatInto(dst, a []float32, b *Matrix) {
	if len(a) != b.Rows || len(dst) != b.Cols {
		panicVecShape("vecmat", len(dst), len(a), b)
	}
	clear(dst)
	for k, x := range a {
		av := float64(x)
		if av == 0 {
			continue
		}
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for j := range dst {
			dst[j] += float32(av * float64(brow[j]))
		}
	}
}

// MatMulT returns a·bᵀ. a is m×k, b is n×k; the result is m×n. This is the
// QKᵀ shape used by attention, avoiding an explicit transpose. Row i is
// VecMatTInto of a's row i.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		VecMatTInto(out.Row(i), a.Row(i), b)
	}
	return out
}

// VecMatTInto writes the row vector a·bᵀ into dst: one row of MatMulT,
// with the same per-element arithmetic. len(a) must be b.Cols and len(dst)
// b.Rows.
//
//alisa:hotpath
func VecMatTInto(dst, a []float32, b *Matrix) {
	if len(a) != b.Cols || len(dst) != b.Rows {
		panicVecShape("vecmatT", len(dst), len(a), b)
	}
	for j := range dst {
		brow := b.Data[j*b.Cols : (j+1)*b.Cols]
		var sum float64
		for k, x := range a {
			// The conversion rounds the product before the add, so no
			// platform fuses the two into one multiply-add.
			sum += float64(float64(x) * float64(brow[k]))
		}
		dst[j] = float32(sum)
	}
}

// panicVecShape reports a vector-matrix shape mismatch; it formats on the
// cold side of VecMatInto and VecMatTInto.
func panicVecShape(op string, dst, a int, b *Matrix) {
	panic(fmt.Sprintf("tensor: %s shape mismatch dst %d, a %d, b %dx%d", op, dst, a, b.Rows, b.Cols))
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float32) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Add accumulates n into m element-wise in place and returns m.
func (m *Matrix) Add(n *Matrix) *Matrix {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("tensor: add shape mismatch %dx%d + %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	for i := range m.Data {
		m.Data[i] += n.Data[i]
	}
	return m
}

// SoftmaxInPlace applies a numerically stable softmax to v. A slice of all
// -Inf values becomes all zeros rather than NaN.
func SoftmaxInPlace(v []float32) {
	if len(v) == 0 {
		return
	}
	maxv := math.Inf(-1)
	for _, x := range v {
		if float64(x) > maxv {
			maxv = float64(x)
		}
	}
	if math.IsInf(maxv, -1) {
		for i := range v {
			v[i] = 0
		}
		return
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(float64(x) - maxv)
		v[i] = float32(e)
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for i := range v {
		v[i] = float32(float64(v[i]) * inv)
	}
}

// AppendRow appends row v (len == m.Cols) to m in place. The backing
// array grows as append grows it, so a matrix made with spare capacity
// takes rows up to that capacity without allocating.
func (m *Matrix) AppendRow(v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: append row length %d != cols %d", len(v), m.Cols))
	}
	m.Data = append(m.Data, v...)
	m.Rows++
}

// Dot returns the inner product of a and b, accumulated in float64.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		sum += float64(float64(a[i]) * float64(b[i])) // rounded as in MatMulT
	}
	return sum
}

// Sum returns the float64 sum of v.
func Sum(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s
}

// ArgTopK returns the indices of the k largest values of v in descending
// value order. Ties break toward the lower index, matching a stable argmax
// over repeated scans. k is clamped to len(v).
//
// This is the allocating convenience wrapper; hot paths should hold a
// TopKScratch and call its ArgTopK to amortise the selection's buffers.
func ArgTopK(v []float32, k int) []int {
	if k <= 0 {
		return nil
	}
	var s TopKScratch
	return s.ArgTopK(v, k, nil)
}

// TopKScratch holds the reusable buffers behind ArgTopK and TopKAscending
// so repeated selections over same-sized inputs allocate nothing after the
// first call. The zero value is ready to use. Not safe for concurrent use.
//
// Both select under one order: larger value first, equal values by
// ascending index, with −0 equal to +0. v must hold no NaN and fewer than
// 2³² values.
type TopKScratch struct {
	keys  []uint32 // order key of every value
	cand  []uint32 // keys still in the running for the k-th largest
	words []uint64 // ArgTopK's winners, packed for the sort
}

// ArgTopK selects the indices of the k largest values of v, written into
// dst[:0] (grown as needed) and returned in descending value order with
// ties breaking toward the lower index — the same total order as the
// package-level ArgTopK. It runs TopKAscending's selection, then sorts
// only the k winners. k is clamped to len(v).
func (s *TopKScratch) ArgTopK(v []float32, k int, dst []int) []int {
	dst = s.TopKAscending(v, k, dst)
	if cap(s.words) < len(dst) {
		s.words = make([]uint64, max(len(dst), 2*cap(s.words)))
	}
	words := s.words[:len(dst)]
	for i, idx := range dst {
		// Ascending (complemented key, index) is descending key, then
		// ascending index.
		words[i] = uint64(^s.keys[idx])<<32 | uint64(idx)
	}
	slices.Sort(words)
	for i, w := range words {
		dst[i] = int(uint32(w))
	}
	return dst
}

// TopKAscending selects the same k indices as ArgTopK, written into
// dst[:0] (grown as needed) but returned in ascending index order, with
// nothing sorted. It maps v into the scratch's key buffer and runs
// TopKAscendingKeys on it. k is clamped to len(v).
func (s *TopKScratch) TopKAscending(v []float32, k int, dst []int) []int {
	keys := s.KeyBuffer(len(v))
	for i, x := range v {
		keys[i] = OrderKey(x)
	}
	return s.TopKAscendingKeys(keys, k, dst)
}

// KeyBuffer returns the scratch's key buffer with length n, for a caller
// that writes the order keys of its scores itself (OrderKey of each) and
// then selects with TopKAscendingKeys. Its contents are whatever the last
// selection left. Selections over steadily lengthening inputs (one new
// token per decode step) grow it geometrically, not every call.
func (s *TopKScratch) KeyBuffer(n int) []uint32 {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("tensor: top-k over %d values, more than 2³²−1", n))
	}
	if cap(s.keys) < n {
		c := max(n, 2*cap(s.keys))
		buf := make([]uint32, 2*c)
		s.keys, s.cand = buf[:c:c], buf[c:]
	}
	return s.keys[:n]
}

// TopKAscendingKeys selects the indices of the k largest order keys,
// lowest index first among equal keys, into dst[:0] (grown as needed) in
// ascending index order. keys is the scratch's KeyBuffer, filled by the
// caller. It finds the k-th largest key t, then sweeps the keys once in
// index order, keeping every key above t and, lowest index first, as many
// equal to t as the k winners hold. k is clamped to len(keys).
func (s *TopKScratch) TopKAscendingKeys(keys []uint32, k int, dst []int) []int {
	k = min(k, len(keys))
	if k <= 0 {
		return dst[:0]
	}
	t, ties, equal := s.kthKey(keys, k)
	// Keys equal to t win up to cut, the index after the ties-th of them.
	cut := len(keys)
	if ties < equal {
		for i, key := range keys {
			if key == t {
				if ties--; ties == 0 {
					cut = i + 1
					break
				}
			}
		}
	}
	// Write every index and advance past the winners only, so the sweep
	// takes no branch on the scores; the k+1st slot absorbs the writes
	// after the last winner.
	dst = slices.Grow(dst[:0], k+1)[:k+1]
	j := 0
	for i, key := range keys[:cut] {
		dst[j] = i
		j += b2i(key >= t)
	}
	for i := cut; i < len(keys); i++ {
		dst[j] = i
		j += b2i(keys[i] > t)
	}
	return dst[:k]
}

// OrderKey maps x to an unsigned key that orders as x does: 2³¹ plus the
// magnitude bits for a positive x, 2³¹ minus them for a negative one, so
// −0 and +0 share the key 2³¹. The top-k selections rank by these keys.
func OrderKey(x float32) uint32 {
	b := math.Float32bits(x)
	mag := b &^ (1 << 31)
	if b>>31 != 0 {
		return 1<<31 - mag
	}
	return 1<<31 + mag
}

// kthKey returns the k-th largest of keys (1 ≤ k ≤ len(keys)), how many
// keys equal to it the k largest hold, and how many keys equal it. It is a
// radix select: each pass counts the candidates by one byte, most
// significant first, and finds the bucket that holds the k-th largest.
// When the k largest take that whole bucket, the least key in it is the
// answer; otherwise the bucket's candidates are compacted into the scratch
// for the next pass.
func (s *TopKScratch) kthKey(keys []uint32, k int) (t uint32, ties, equal int) {
	cand := keys
	for shift := 24; ; shift -= 8 {
		var hist [256]uint32
		top := 0
		for _, c := range cand {
			d := int(uint8(c >> shift))
			hist[d]++
			top = max(top, d)
		}
		b := top
		for k > int(hist[b]) {
			k -= int(hist[b])
			b--
		}
		if shift == 0 {
			// Every candidate in the bucket equals t.
			return t | uint32(b), k, int(hist[b])
		}
		if int(hist[b]) == k {
			t = math.MaxUint32
			for _, c := range cand {
				if int(uint8(c>>shift)) != b {
					continue
				}
				if c < t {
					t, ties = c, 1
				} else if c == t {
					ties++
				}
			}
			return t, ties, ties
		}
		t |= uint32(b) << shift
		next := s.cand[:0]
		for _, c := range cand {
			if int(uint8(c>>shift)) == b {
				next = append(next, c)
			}
		}
		cand = next
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// LayerNorm normalises v in place to zero mean and unit variance, then
// applies elementwise gain g and bias b when non-nil.
func LayerNorm(v []float32, g, b []float32, eps float64) {
	if len(v) == 0 {
		return
	}
	var mean float64
	for _, x := range v {
		mean += float64(x)
	}
	mean /= float64(len(v))
	var varsum float64
	for _, x := range v {
		d := float64(x) - mean
		varsum += float64(d * d) // rounded as in MatMulT
	}
	inv := 1 / math.Sqrt(varsum/float64(len(v))+eps)
	for i := range v {
		n := (float64(v[i]) - mean) * inv
		if g != nil {
			n *= float64(g[i])
		}
		if b != nil {
			n += float64(b[i])
		}
		v[i] = float32(n)
	}
}
