// Package textfmt renders the evaluation outputs as terminal text: aligned
// tables for the per-figure series, shade heat maps for attention weight
// maps (Fig. 5), horizontal bars for breakdowns (Fig. 1, 11, 12), and
// human-readable byte and time formatting.
package textfmt

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows panic (a programming error).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("textfmt: row has %d cells for %d columns", len(cells), len(t.headers)))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	rule := make([]string, len(t.headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// shades from light to dark for heat maps.
const shades = " .:-=+*#%@"

// Heatmap renders a matrix as shade characters, scaled to the matrix
// maximum. Each cell becomes two characters for a squarer aspect ratio.
func Heatmap(m [][]float64) string {
	var maxv float64
	for _, row := range m {
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
	}
	var b strings.Builder
	for _, row := range m {
		for _, v := range row {
			idx := 0
			if maxv > 0 && v > 0 {
				idx = int(v / maxv * float64(len(shades)-1))
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteByte(shades[idx])
			b.WriteByte(shades[idx])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Bytes formats a byte count with binary units.
func Bytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Seconds formats a duration in engineering units.
func Seconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1f µs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1f ms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.2f s", s)
	default:
		return fmt.Sprintf("%.1f min", s/60)
	}
}
