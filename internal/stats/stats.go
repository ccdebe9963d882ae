// Package stats provides the small numeric and text-rendering helpers the
// experiment harness uses: means, geometric means, speedup arithmetic, and
// fixed-width table/bar rendering for figure-shaped terminal output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for empty input; panics on
// non-positive values, which would make the result meaningless).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Min and Max return the extrema of xs; both return 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Speedup returns new/old guarded against division by zero.
func Speedup(baseline, improved float64) float64 {
	if improved == 0 {
		return 0
	}
	return baseline / improved
}

// Table renders fixed-width text tables. Rows are added cell-wise; Render
// pads every column to its widest cell.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given header.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are kept as-is.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v unless it is a float64, which gets %.3f.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(row...)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// Render returns the table as aligned text with a separator under the header.
func (t *Table) Render() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
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
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
