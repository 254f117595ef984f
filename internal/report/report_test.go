package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := New("title", "col1", "column2")
	tb.AddRow("a", 1)
	tb.AddRow("bbbb", 22.5)
	out := tb.String()
	if !strings.HasPrefix(out, "title\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "col1") || !strings.Contains(lines[1], "column2") {
		t.Fatalf("header wrong: %q", lines[1])
	}
	if !strings.Contains(out, "22.50") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "----") {
		t.Fatal("missing separator")
	}
}

func TestCellAccess(t *testing.T) {
	tb := New("", "a", "b")
	tb.AddRow("x", 3)
	got, err := tb.Cell(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != "3" {
		t.Fatalf("cell: %q", got)
	}
	if _, err := tb.Cell(5, 0); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := tb.Cell(0, 9); err == nil {
		t.Fatal("out-of-range col accepted")
	}
	if tb.Rows() != 1 {
		t.Fatal("row count wrong")
	}
}

func TestFloatTrimming(t *testing.T) {
	tb := New("", "v")
	tb.AddRow(3.0)
	got, err := tb.Cell(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "3" {
		t.Fatalf("integral float: %q", got)
	}
}

func TestHelpers(t *testing.T) {
	if Bold("x") != "*x*" {
		t.Fatal("Bold wrong")
	}
	if Minutes(89.6) != "90" {
		t.Fatalf("Minutes: %q", Minutes(89.6))
	}
	if Pct(0.151) != "+15.1%" {
		t.Fatalf("Pct: %q", Pct(0.151))
	}
	if Pct(-0.025) != "-2.5%" {
		t.Fatalf("Pct: %q", Pct(-0.025))
	}
}

func TestColumnAlignment(t *testing.T) {
	tb := New("", "name", "v")
	tb.AddRow("short", 1)
	tb.AddRow("a-much-longer-name", 2)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// The value column starts at the same offset on both data rows.
	i1 := strings.Index(lines[2], "1")
	i2 := strings.Index(lines[3], "2")
	if i1 != i2 {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

// TestPadCountsRunes checks that columns line up when cells hold
// multi-byte runes: every rendered line of a column is as wide, in
// runes, as its widest cell.
func TestPadCountsRunes(t *testing.T) {
	tb := New("", "κ≈α", "x")
	tb.AddRow("γ>1", "a")
	tb.AddRow("wide cell", "b")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	want := []string{
		"κ≈α        x",
		"---------  -",
		"γ>1        a",
		"wide cell  b",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}
