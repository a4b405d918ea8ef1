// Package trace holds the per-category execution time and per-step
// memory usage that the paper's breakdown figures report: Fig. 1 (MHA /
// FFN / memory access), Fig. 2(c) (time and memory per step), and
// Fig. 12(a) (per-phase time and GPU/CPU memory). A Breakdown is a value:
// memsim.System keeps a run's as its time ledger and books every charge
// of simulated time to it.
package trace

import (
	"fmt"
	"strings"
)

// Category labels a slice of execution time. It indexes a Breakdown.
type Category uint8

// Execution-time categories, declared in name order so that index order
// is render order.
const (
	CatFFN Category = iota
	CatFullForward
	CatMHA
	CatPrefill
	CatQuant
	CatRecompute
	CatTransfer
	numCategories
)

var categoryNames = [numCategories]string{"ffn", "full-forward", "mha", "prefill", "quant", "recompute", "transfer"}

// String returns the category's name.
func (c Category) String() string { return categoryNames[c] }

// Breakdown is seconds by category. The zero value is empty.
type Breakdown [numCategories]float64

// Deprecated: a Breakdown's zero value is empty, and memsim.System keeps the ledger.
func NewBreakdown() *Breakdown { return new(Breakdown) }

// Add charges dt seconds to the category; negative charges panic.
func (b *Breakdown) Add(cat Category, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("trace: negative charge %v to %s", dt, cat))
	}
	b[cat] += dt
}

// Get returns the seconds charged to cat.
func (b Breakdown) Get(cat Category) float64 { return b[cat] }

// Categories returns the non-zero categories in name order.
func (b Breakdown) Categories() []Category {
	var cats []Category
	for c, v := range b {
		if v > 0 {
			cats = append(cats, Category(c))
		}
	}
	return cats
}

// String formats the breakdown as "cat=1.234s" pairs in name order.
func (b Breakdown) String() string {
	cats := b.Categories()
	parts := make([]string, 0, len(cats))
	for _, c := range cats {
		parts = append(parts, fmt.Sprintf("%s=%.3fs", c, b[c]))
	}
	return strings.Join(parts, " ")
}

// MemSample records device memory at one decode step.
type MemSample struct {
	Step     int
	GPUBytes int64
	CPUBytes int64
}

// MemSeries is the per-step memory trajectory of a run.
type MemSeries struct {
	Samples []MemSample
}

// Record appends a sample.
func (m *MemSeries) Record(step int, gpu, cpu int64) {
	m.Samples = append(m.Samples, MemSample{Step: step, GPUBytes: gpu, CPUBytes: cpu})
}

// PeakGPU returns the largest GPU sample, 0 when empty.
func (m *MemSeries) PeakGPU() int64 {
	var peak int64
	for _, s := range m.Samples {
		if s.GPUBytes > peak {
			peak = s.GPUBytes
		}
	}
	return peak
}

// PeakCPU returns the largest CPU sample, 0 when empty.
func (m *MemSeries) PeakCPU() int64 {
	var peak int64
	for _, s := range m.Samples {
		if s.CPUBytes > peak {
			peak = s.CPUBytes
		}
	}
	return peak
}

// At returns the sample at the given step, or false when absent.
func (m *MemSeries) At(step int) (MemSample, bool) {
	for _, s := range m.Samples {
		if s.Step == step {
			return s, true
		}
	}
	return MemSample{}, false
}
