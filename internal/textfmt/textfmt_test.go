package textfmt

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header+rule+2 rows, got %d lines:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("rule width mismatch:\n%s", out)
	}
	if !strings.HasPrefix(lines[3], "longer-name") {
		t.Fatalf("row order wrong:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("x")
	if !strings.Contains(tb.String(), "x") {
		t.Fatal("short row lost")
	}
}

func TestTableOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("a").AddRow("1", "2")
}

func TestHeatmapShape(t *testing.T) {
	m := [][]float64{{0, 1}, {0.5, 0}}
	out := Heatmap(m)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	if len(lines[0]) != 4 {
		t.Fatalf("want 2 chars per cell, got %q", lines[0])
	}
	// The maximum value must render darkest, zero lightest.
	if lines[0][2] != '@' || lines[0][0] != ' ' {
		t.Fatalf("shading wrong: %q", lines[0])
	}
}

func TestHeatmapAllZeros(t *testing.T) {
	out := Heatmap([][]float64{{0, 0}})
	if strings.TrimRight(out, "\n") != "    " {
		t.Fatalf("all-zero map should be blank, got %q", out)
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		512:             "512 B",
		2048:            "2.0 KiB",
		3 << 20:         "3.0 MiB",
		int64(32) << 30: "32.0 GiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSeconds(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		5e-6:  "5.0 µs",
		2e-3:  "2.0 ms",
		1.5:   "1.50 s",
		600.0: "10.0 min",
	}
	for in, want := range cases {
		if got := Seconds(in); got != want {
			t.Errorf("Seconds(%v) = %q, want %q", in, got, want)
		}
	}
}
