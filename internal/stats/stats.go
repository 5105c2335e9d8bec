// Package stats provides the small statistical and formatting helpers the
// sweep reports and the paper-claim tests use: summary statistics over
// samples, a least-squares fit for shape checks (is decision time flat in
// n?), and a plain-text table renderer.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean, or 0 for an empty sample.
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

// Median returns the median, or 0 for an empty sample.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) using nearest-rank on a
// sorted copy, or 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p == 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Min and Max return the extrema, or 0 for empty samples.
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

// Max returns the maximum, or 0 for an empty sample.
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

// LinFit returns the least-squares slope and intercept of y against x.
// It panics on mismatched lengths and returns (0, mean) for fewer than two
// points or zero variance in x.
func LinFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: LinFit length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		return 0, Mean(y)
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return 0, my
	}
	slope = sxy / sxx
	return slope, my - slope*mx
}

// Table is a simple plain-text table.
type Table struct {
	Columns []string
	Rows    [][]string
}

// AddRow appends a row formatted from the given values (fmt.Sprint each).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
