// Package stats provides the small statistics toolkit the figure harness
// needs: empirical CDFs, top-K counters, log-log hex/grid binning for the
// §4.4 filtering scatter, and aligned text tables for paper-style output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution over float64 samples.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (copied and sorted).
func NewECDF(samples []float64) *ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample count.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P[X <= x].
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile (0<=q<=1) by nearest-rank.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Mean returns the sample mean (NaN when empty).
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// LogBin2D grid-bins (x, y) points on log10(v+1) axes — the §4.4 Figure 6b
// scatter of filtering vs forwarding indications per AS edge.
type LogBin2D struct {
	// CellsPerDecade controls bin resolution.
	CellsPerDecade int
	bins           map[[2]int]int
}

// NewLogBin2D builds a binner with the given resolution (cells per decade).
func NewLogBin2D(cellsPerDecade int) *LogBin2D {
	if cellsPerDecade <= 0 {
		cellsPerDecade = 4
	}
	return &LogBin2D{CellsPerDecade: cellsPerDecade, bins: make(map[[2]int]int)}
}

func (h *LogBin2D) cell(v float64) int {
	return int(math.Floor(math.Log10(v+1) * float64(h.CellsPerDecade)))
}

// Add bins one point.
func (h *LogBin2D) Add(x, y float64) {
	h.bins[[2]int{h.cell(x), h.cell(y)}]++
}

// Bin is one populated cell.
type Bin struct {
	// X, Y are the cell's lower-corner values on the log10(v+1) axes.
	X, Y  float64
	Count int
}

// Bins returns populated cells in deterministic order.
func (h *LogBin2D) Bins() []Bin {
	keys := make([][2]int, 0, len(h.bins))
	for k := range h.bins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]Bin, len(keys))
	for i, k := range keys {
		out[i] = Bin{
			X:     float64(k[0]) / float64(h.CellsPerDecade),
			Y:     float64(k[1]) / float64(h.CellsPerDecade),
			Count: h.bins[k],
		}
	}
	return out
}

// Table renders aligned text tables in paper style.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(cols-1)))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Pct formats a ratio as "NN.N%".
func Pct(num, den int) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}
