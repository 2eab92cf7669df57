// Package exp is the benchmark harness that regenerates every figure of the
// paper's evaluation (§V). Each experiment is registered under the figure id
// it reproduces (fig6a … fig16, plus ablations) and emits a Table whose rows
// are the series the paper plots. See DESIGN.md §4 for the per-experiment
// index and EXPERIMENTS.md for paper-vs-measured numbers.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, formatting each value with %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Render writes an aligned plain-text table.
func (t *Table) Render(w io.Writer) error {
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
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the table as CSV (header + rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
