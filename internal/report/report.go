// Package report renders fixed-width text tables and misprediction
// matrices for the experiment harness and the service, so the regenerated
// Tables/Figures read like the paper's.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// Table accumulates rows of string cells under a header and renders them
// with aligned columns.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row formatting each cell with fmt.Sprint.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.2f", v))
		default:
			row = append(row, fmt.Sprint(c))
		}
	}
	t.AddRow(row...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.title != "" {
		fmt.Fprintln(w, t.title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Matrix renders a misprediction matrix: one row per run, named by runs,
// one column per predictor, named by the first row's counters, and a MEAN
// row of per-run ratio averages. With no rows it prints the title and
// "(no cells)".
func Matrix(w io.Writer, title string, runs []string, rows [][]stats.Counters) {
	if len(rows) == 0 {
		fmt.Fprintln(w, title)
		fmt.Fprintln(w, "  (no cells)")
		return
	}
	header := []string{"run"}
	for _, c := range rows[0] {
		header = append(header, c.Predictor)
	}
	t := NewTable(title, header...)
	for i, row := range rows {
		cells := []string{runs[i]}
		for _, c := range row {
			cells = append(cells, Pct(c.MispredictionRatio()))
		}
		t.AddRow(cells...)
	}
	mean := []string{"MEAN"}
	column := make([]stats.Counters, len(rows))
	for j := range rows[0] {
		for i, row := range rows {
			column[i] = row[j]
		}
		mean = append(mean, Pct(stats.MeanRatio(column)))
	}
	t.AddRow(mean...)
	t.Render(w)
	fmt.Fprintln(w)
}

// Pct formats a ratio in [0,1] as a percentage string.
func Pct(r float64) string { return fmt.Sprintf("%.2f", 100*r) }
