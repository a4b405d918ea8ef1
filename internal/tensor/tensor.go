// Package tensor provides the dense numeric substrate used by the runnable
// transformer model and the attention policies: row-major float32 matrices
// with the handful of operations LLM inference needs (matmul, softmax,
// gather, concat, top-k). Accumulation is performed in float64 so results
// are stable enough for cross-checking cached against uncached decoding.
//
// Shape mismatches are programmer errors and panic, mirroring the behaviour
// of the Go runtime on out-of-range slice indexing.
package tensor

import (
	"fmt"
	"math"
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

// MatMul returns a·b. a is m×k, b is k×n; the result is m×n.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := float64(arow[k])
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += float32(av * float64(brow[j]))
			}
		}
	}
	return out
}

// MatMulT returns a·bᵀ. a is m×k, b is n×k; the result is m×n. This is the
// QKᵀ shape used by attention, avoiding an explicit transpose.
func MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float64
			for k := range arow {
				sum += float64(arow[k]) * float64(brow[k])
			}
			orow[j] = float32(sum)
		}
	}
	return out
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

// GatherRows returns a new matrix whose i-th row is m's row idx[i]. Indices
// may repeat; each must be in range. This is the "pack sparse KV tensors
// into a dense one" gather from the paper's Algorithm 1.
func GatherRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	for i, r := range idx {
		if r < 0 || r >= m.Rows {
			panic(fmt.Sprintf("tensor: gather index %d out of range %d", r, m.Rows))
		}
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// ConcatRows stacks a on top of b; both must have the same column count.
func ConcatRows(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: concat col mismatch %d vs %d", a.Cols, b.Cols))
	}
	out := New(a.Rows+b.Rows, a.Cols)
	copy(out.Data[:len(a.Data)], a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// AppendRow appends row v (len == m.Cols) to m, returning a matrix that may
// share m's backing array when capacity allows.
func (m *Matrix) AppendRow(v []float32) *Matrix {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: append row length %d != cols %d", len(v), m.Cols))
	}
	return &Matrix{Rows: m.Rows + 1, Cols: m.Cols, Data: append(m.Data, v...)}
}

// Dot returns the inner product of a and b, accumulated in float64.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		sum += float64(a[i]) * float64(b[i])
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
// TopKScratch and call its ArgTopK to amortise the index permutation.
func ArgTopK(v []float32, k int) []int {
	if k <= 0 {
		return nil
	}
	var s TopKScratch
	return s.ArgTopK(v, k, nil)
}

// TopKScratch holds the reusable index permutation behind ArgTopK so
// repeated selections over same-sized inputs allocate nothing after the
// first call. The zero value is ready to use. Not safe for concurrent use.
type TopKScratch struct {
	perm []int
}

// ArgTopK selects the indices of the k largest values of v, written into
// dst[:0] (grown as needed) and returned in descending value order with
// ties breaking toward the lower index — the same total order as the
// package-level ArgTopK. It runs an O(n) deterministic quickselect
// (median-of-three pivots) followed by an O(k log k) sort of the winners,
// replacing the previous O(k·n) repeated-max scan. k is clamped to len(v).
func (s *TopKScratch) ArgTopK(v []float32, k int, dst []int) []int {
	if k > len(v) {
		k = len(v)
	}
	if k <= 0 {
		return dst[:0]
	}
	if cap(s.perm) < len(v) {
		// Grow geometrically: selections over steadily lengthening inputs
		// (one new token per decode step) must not reallocate every call.
		s.perm = make([]int, max(len(v), 2*cap(s.perm)))
	}
	perm := s.perm[:len(v)]
	for i := range perm {
		perm[i] = i
	}
	topKSelect(v, perm, k)
	topKSort(v, perm[:k])
	return append(dst[:0], perm[:k]...)
}

// topKBefore is the strict total order of the selection: larger value
// first, equal values ordered by ascending index. Because the index breaks
// every tie, no two distinct perm entries compare equal, which keeps the
// Hoare partition below well-defined.
func topKBefore(v []float32, a, b int) bool {
	if v[a] != v[b] {
		return v[a] > v[b]
	}
	return a < b
}

// topKPartition runs a Hoare partition on perm[lo:hi] (hi−lo > 2) around
// a median-of-three pivot (which guards against the already-sorted score
// vectors the policies produce). On return, entries in perm[lo:j+1]
// precede the pivot band and entries in perm[i:hi] follow it, with
// j+1 ≤ i; any entries in perm[j+1:i] are settled in their final
// positions under topKBefore.
func topKPartition(v []float32, perm []int, lo, hi int) (i, j int) {
	mid := lo + (hi-lo)/2
	if topKBefore(v, perm[mid], perm[lo]) {
		perm[mid], perm[lo] = perm[lo], perm[mid]
	}
	if topKBefore(v, perm[hi-1], perm[lo]) {
		perm[hi-1], perm[lo] = perm[lo], perm[hi-1]
	}
	if topKBefore(v, perm[hi-1], perm[mid]) {
		perm[hi-1], perm[mid] = perm[mid], perm[hi-1]
	}
	pivot := perm[mid]
	i, j = lo, hi-1
	for i <= j {
		for topKBefore(v, perm[i], pivot) {
			i++
		}
		for topKBefore(v, pivot, perm[j]) {
			j--
		}
		if i <= j {
			perm[i], perm[j] = perm[j], perm[i]
			i++
			j--
		}
	}
	return i, j
}

// topKSelect partially orders perm so that perm[:k] holds the first k
// entries under topKBefore, in arbitrary order. Average O(len(perm)).
func topKSelect(v []float32, perm []int, k int) {
	lo, hi := 0, len(perm)
	for hi-lo > 12 {
		i, j := topKPartition(v, perm, lo, hi)
		switch {
		case k <= j+1:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // boundary falls inside the settled [j+1, i) band
		}
	}
	topKInsertionSort(v, perm[lo:hi])
}

// topKSort fully orders perm under topKBefore (quicksort, insertion base).
func topKSort(v []float32, perm []int) {
	for len(perm) > 12 {
		i, j := topKPartition(v, perm, 0, len(perm))
		// Recurse into the smaller side, loop on the larger.
		if j+1 < len(perm)-i {
			topKSort(v, perm[:j+1])
			perm = perm[i:]
		} else {
			topKSort(v, perm[i:])
			perm = perm[:j+1]
		}
	}
	topKInsertionSort(v, perm)
}

func topKInsertionSort(v []float32, perm []int) {
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && topKBefore(v, perm[j], perm[j-1]); j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
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
		varsum += d * d
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
