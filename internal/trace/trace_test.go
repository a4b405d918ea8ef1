package trace

import (
	"strings"
	"testing"
)

func TestBreakdownAddGetTotal(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatMHA, 1.5)
	b.Add(CatMHA, 0.5)
	b.Add(CatFFN, 1.0)
	if b.Get(CatMHA) != 2.0 {
		t.Fatalf("MHA = %v, want 2.0", b.Get(CatMHA))
	}
	if b.Get(CatQuant) != 0 {
		t.Fatal("unset category should be zero")
	}
}

func TestBreakdownNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBreakdown().Add(CatMHA, -1)
}

func TestBreakdownStringSorted(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatTransfer, 2)
	b.Add(CatFFN, 1)
	s := b.String()
	if !strings.Contains(s, "ffn=1.000s") || !strings.Contains(s, "transfer=2.000s") {
		t.Fatalf("String = %q", s)
	}
	if strings.Index(s, "ffn") > strings.Index(s, "transfer") {
		t.Fatalf("categories not sorted: %q", s)
	}
}

func TestCategoriesOmitZero(t *testing.T) {
	b := NewBreakdown()
	b.Add(CatMHA, 0)
	b.Add(CatFFN, 1)
	cats := b.Categories()
	if len(cats) != 1 || cats[0] != CatFFN {
		t.Fatalf("Categories = %v", cats)
	}
}

func TestMemSeries(t *testing.T) {
	var m MemSeries
	m.Record(0, 100, 10)
	m.Record(1, 300, 20)
	m.Record(2, 200, 50)
	if m.PeakGPU() != 300 || m.PeakCPU() != 50 {
		t.Fatalf("peaks = %d/%d", m.PeakGPU(), m.PeakCPU())
	}
	s, ok := m.At(1)
	if !ok || s.GPUBytes != 300 {
		t.Fatalf("At(1) = %+v, %v", s, ok)
	}
	if _, ok := m.At(9); ok {
		t.Fatal("At(9) should miss")
	}
	var empty MemSeries
	if empty.PeakGPU() != 0 || empty.PeakCPU() != 0 {
		t.Fatal("empty series peaks should be zero")
	}
}
