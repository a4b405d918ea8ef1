// Package trace accumulates the per-category execution time and per-step
// memory usage that the paper's breakdown figures report: Fig. 1 (MHA /
// FFN / memory access), Fig. 2(c) (time and memory per step), and
// Fig. 12(a) (per-phase time and GPU/CPU memory).
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Category labels a slice of execution time.
type Category string

// Execution-time categories used by the engine.
const (
	CatPrefill     Category = "prefill"
	CatMHA         Category = "mha"
	CatFFN         Category = "ffn"
	CatTransfer    Category = "transfer"
	CatRecompute   Category = "recompute"
	CatQuant       Category = "quant"
	CatFullForward Category = "full-forward"
	CatOther       Category = "other"
)

// Breakdown accumulates seconds by category.
type Breakdown struct {
	seconds map[Category]float64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{seconds: make(map[Category]float64)}
}

// Add charges dt seconds to the category; negative charges panic.
func (b *Breakdown) Add(cat Category, dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("trace: negative charge %v to %s", dt, cat))
	}
	b.seconds[cat] += dt
}

// Get returns the seconds charged to cat.
func (b *Breakdown) Get(cat Category) float64 { return b.seconds[cat] }

// Clone returns an independent copy of the breakdown.
func (b *Breakdown) Clone() *Breakdown {
	c := NewBreakdown()
	for cat, v := range b.seconds {
		c.seconds[cat] = v
	}
	return c
}

// Categories returns the non-zero categories in stable (sorted) order.
func (b *Breakdown) Categories() []Category {
	cats := make([]Category, 0, len(b.seconds))
	for c, v := range b.seconds {
		if v > 0 {
			cats = append(cats, c)
		}
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	return cats
}

// String formats the breakdown as "cat=1.234s" pairs in sorted order.
func (b *Breakdown) String() string {
	cats := b.Categories()
	parts := make([]string, 0, len(cats))
	for _, c := range cats {
		parts = append(parts, fmt.Sprintf("%s=%.3fs", c, b.seconds[c]))
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
