// Package report renders experiment results as aligned text tables, so
// the benchmark harness prints the same rows the paper's tables report.
package report

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	// Title is printed above the table.
	Title string
	// Header holds the column names.
	Header []string
	rows   [][]string
}

// New builds a table with the given title and columns.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Header: columns}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the formatted cell at (row, col).
func (t *Table) Cell(row, col int) (string, error) {
	if row < 0 || row >= len(t.rows) {
		return "", fmt.Errorf("report: row %d out of range (%d rows)", row, len(t.rows))
	}
	if col < 0 || col >= len(t.rows[row]) {
		return "", fmt.Errorf("report: col %d out of range", col)
	}
	return t.rows[row][col], nil
}

// trimFloat renders floats compactly: integers without decimals,
// otherwise two significant decimals.
func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}

// pad right-fills s with spaces to w runes: cells such as "κ≈α" hold
// multi-byte runes that each take one column.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Bold marks a cell value the way the paper bolds winning strategies.
func Bold(s string) string { return "*" + s + "*" }

// Minutes formats a runtime in whole minutes, as the paper reports.
func Minutes(m float64) string { return fmt.Sprintf("%.0f", m) }

// Pct formats a ratio as a signed percentage.
func Pct(frac float64) string { return fmt.Sprintf("%+.1f%%", frac*100) }
